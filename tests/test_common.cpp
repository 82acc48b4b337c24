#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "common/bits.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace matcha {
namespace {

TEST(Torus, RoundTripDouble) {
  for (double d : {0.0, 0.25, -0.25, 0.125, -0.49999, 0.111, -0.333}) {
    const Torus32 t = double_to_torus32(d);
    EXPECT_NEAR(torus32_to_double(t), d, 1e-9) << d;
  }
}

TEST(Torus, FractionExact) {
  EXPECT_EQ(torus_fraction(1, 8), 0x20000000u);
  EXPECT_EQ(torus_fraction(1, 2), 0x80000000u);
  EXPECT_EQ(torus_fraction(3, 8), 0x60000000u);
  EXPECT_EQ(torus_fraction(-1, 8), static_cast<Torus32>(-0x20000000));
}

TEST(Torus, WrapAroundAddition) {
  const Torus32 a = double_to_torus32(0.4);
  const Torus32 b = double_to_torus32(0.3);
  // 0.7 wraps to -0.3.
  EXPECT_NEAR(torus32_to_double(a + b), -0.3, 1e-8);
}

TEST(Torus, DistanceSymmetricAndWrapped) {
  const Torus32 a = double_to_torus32(0.49);
  const Torus32 b = double_to_torus32(-0.49);
  EXPECT_NEAR(torus_distance(a, b), 0.02, 1e-8);
  EXPECT_DOUBLE_EQ(torus_distance(a, a), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformBelowInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform_below(37), 37u);
}

TEST(Rng, UniformDoubleRange) {
  Rng r(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(3);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianTorusStdDev) {
  Rng r(4);
  const double sigma = 1e-3;
  const int n = 100000;
  double sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double e = torus32_to_double(r.gaussian_torus(sigma));
    sum2 += e * e;
  }
  EXPECT_NEAR(std::sqrt(sum2 / n), sigma, sigma * 0.05);
}

TEST(Rng, BitsAreBalanced) {
  Rng r(5);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += r.uniform_bit();
  EXPECT_NEAR(ones, 5000, 300);
}

class CsdProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(CsdProperty, ReconstructsValue) {
  const int64_t v = GetParam();
  int64_t sum = 0;
  for (const auto& d : csd_encode(v)) {
    sum += d.sign * (int64_t{1} << d.pos);
  }
  EXPECT_EQ(sum, v);
}

TEST_P(CsdProperty, NoAdjacentNonzeroDigits) {
  const auto digits = csd_encode(GetParam());
  for (size_t i = 1; i < digits.size(); ++i) {
    EXPECT_GE(digits[i].pos - digits[i - 1].pos, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, CsdProperty,
                         ::testing::Values(0, 1, -1, 2, 3, 7, 9, 45, 127, 128,
                                           255, 1023, 0x5555, 0x7FFFFFFF,
                                           (int64_t{1} << 40) - 1, 0xDEADBEEF));

TEST(Csd, AdderCountsMinimalExamples) {
  EXPECT_EQ(csd_adder_count(0), 0);
  EXPECT_EQ(csd_adder_count(8), 0);  // single shift
  EXPECT_EQ(csd_adder_count(9), 1);  // 8 + 1
  EXPECT_EQ(csd_adder_count(7), 1);  // 8 - 1
  EXPECT_EQ(csd_adder_count(255), 1); // 256 - 1 (CSD beats binary's 7 adds)
}

TEST(Csd, RandomValuesBeatBinaryPopcount) {
  Rng r(6);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = static_cast<int64_t>(r.next_u64() >> 20);
    EXPECT_LE(csd_digit_count(v), __builtin_popcountll(v) + 1) << v;
  }
}

TEST(Bits, Pow2AndLog) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_EQ(ilog2(1023), 9);
}

TEST(StatusOr, HoldsValue) {
  const StatusOr<std::string> v(std::string("payload"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(*v, "payload");
  EXPECT_EQ(v->size(), 7u);
}

TEST(StatusOr, MovesValueOut) {
  static_assert(!std::is_copy_constructible_v<StatusOr<int>>);
  static_assert(!std::is_copy_assignable_v<StatusOr<int>>);
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(42));
  StatusOr<std::unique_ptr<int>> w = std::move(v);
  ASSERT_TRUE(w.ok());
  const std::unique_ptr<int> p = std::move(w).value();
  EXPECT_EQ(*p, 42);

  StatusOr<std::unique_ptr<int>> e(data_loss_status("truncated"));
  e = StatusOr<std::unique_ptr<int>>(std::make_unique<int>(7));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(**e, 7);
}

TEST(StatusOr, CarriesErrorStatus) {
  const StatusOr<int> e(data_loss_status("truncated"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status(), data_loss_status("truncated"));
  // An OK status carries no value, so it becomes an internal error.
  const StatusOr<int> no_value(Status::ok_status());
  EXPECT_FALSE(no_value.ok());
  EXPECT_EQ(no_value.status().code(), StatusCode::kInternal);
}

TEST(StatusOr, ValueOnErrorThrowsItsStatus) {
  StatusOr<int> e(out_of_range_status("index 9"));
  try {
    (void)e.value();
    ADD_FAILURE() << "value() on an error returned";
  } catch (const StatusError& err) {
    EXPECT_EQ(err.status(), out_of_range_status("index 9"));
  }
  EXPECT_THROW((void)std::as_const(e).value(), StatusError);
  EXPECT_THROW((void)std::move(e).value(), StatusError);
}

} // namespace
} // namespace matcha
