#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "common/rng.h"
#include "fft/cp_fft.h"
#include "fft/double_fft.h"

namespace matcha {
namespace {

IntPolynomial random_digits(Rng& rng, int n, int amp = 512) {
  IntPolynomial p(n);
  for (auto& c : p.coeffs) c = static_cast<int>(rng.uniform_below(2 * amp)) - amp;
  return p;
}

TorusPolynomial random_torus(Rng& rng, int n) {
  TorusPolynomial p(n);
  for (auto& c : p.coeffs) c = rng.uniform_torus();
  return p;
}

// ---- CpFft against a direct DFT ----------------------------------------

class CpFftSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CpFftSizes, MatchesDirectDft) {
  const auto [n, sign] = GetParam();
  Rng rng(1);
  std::vector<std::complex<double>> in(n), out(n);
  for (auto& v : in) v = {rng.uniform_double() - 0.5, rng.uniform_double() - 0.5};
  CpFft fft(n, sign);
  fft.transform(in.data(), out.data());
  for (int k = 0; k < n; ++k) {
    std::complex<double> ref{0, 0};
    for (int j = 0; j < n; ++j) {
      const double theta = sign * 2.0 * std::numbers::pi * j * k / n;
      ref += in[j] * std::complex<double>{std::cos(theta), std::sin(theta)};
    }
    EXPECT_NEAR(std::abs(out[k] - ref), 0.0, 1e-9 * n) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CpFftSizes,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16,
                                                              64, 256, 512),
                                            ::testing::Values(+1, -1)));

TEST(CpFft, SingleTwiddleLoadPerConjugatePair) {
  const int n = 512;
  Rng rng(2);
  std::vector<std::complex<double>> in(n), out(n);
  for (auto& v : in) v = {rng.uniform_double(), rng.uniform_double()};
  CpFft fft(n, +1);
  fft.transform(in.data(), out.data());
  // The breadth-first radix-2 flow reads (n/2)*log2(n) twiddles; CPFFT must
  // read strictly fewer than half of that (one per radix-4 pair).
  const int64_t radix2 = n / 2 * 9;
  EXPECT_LT(fft.stats().twiddle_loads, radix2 / 2);
  EXPECT_GT(fft.stats().twiddle_loads, 0);
}

// ---- Negacyclic engine, both flows ---------------------------------------

class EngineFlows : public ::testing::TestWithParam<std::tuple<int, FftFlow>> {};

TEST_P(EngineFlows, ProductMatchesSchoolbookExactly) {
  const auto [n, flow] = GetParam();
  Rng rng(3);
  DoubleFftEngine eng(n, flow);
  const IntPolynomial a = random_digits(rng, n);
  const TorusPolynomial b = random_torus(rng, n);
  TorusPolynomial ref(n);
  negacyclic_multiply_reference(ref, a, b);

  SpectralD sa, sb, acc;
  eng.to_spectral_int(a, sa);
  eng.to_spectral_torus(b, sb);
  eng.acc_init(acc);
  eng.mac(acc, sa, sb);
  TorusPolynomial out(n);
  eng.from_spectral_acc(acc, out);
  EXPECT_EQ(out, ref);
}

TEST_P(EngineFlows, RoundTripIsIdentity) {
  const auto [n, flow] = GetParam();
  Rng rng(4);
  DoubleFftEngine eng(n, flow);
  const TorusPolynomial p = random_torus(rng, n);
  SpectralD s;
  eng.to_spectral_torus(p, s);
  TorusPolynomial back(n);
  eng.from_spectral_torus(s, back);
  EXPECT_EQ(back, p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineFlows,
    ::testing::Combine(::testing::Values(16, 64, 256, 1024),
                       ::testing::Values(FftFlow::kBreadthFirstCooleyTukey,
                                         FftFlow::kDepthFirstConjugatePair)));

TEST(Engine, MacAccumulatesMultipleRows) {
  const int n = 256;
  Rng rng(5);
  DoubleFftEngine eng(n);
  TorusPolynomial ref(n);
  SpectralD acc;
  eng.acc_init(acc);
  for (int r = 0; r < 6; ++r) {
    const IntPolynomial a = random_digits(rng, n);
    const TorusPolynomial b = random_torus(rng, n);
    negacyclic_multiply_add_reference(ref, a, b);
    SpectralD sa, sb;
    eng.to_spectral_int(a, sa);
    eng.to_spectral_torus(b, sb);
    eng.mac(acc, sa, sb);
  }
  TorusPolynomial out(n);
  eng.from_spectral_acc(acc, out);
  EXPECT_EQ(out, ref);
}

TEST(Engine, RotScaleAddMatchesCoefficientDomain) {
  const int n = 256;
  Rng rng(6);
  DoubleFftEngine eng(n);
  const TorusPolynomial p = random_torus(rng, n);
  for (int64_t c : {1, 5, 100, 255, 256, 300, 511}) {
    // Spectral path: dst = (X^{-c} - 1) * p.
    SpectralD sp, dst(n / 2);
    eng.to_spectral_torus(p, sp);
    dst.clear();
    eng.rot_scale_add(dst, sp, c);
    TorusPolynomial got(n);
    eng.from_spectral_torus(dst, got);
    // Coefficient path.
    TorusPolynomial ref(n);
    multiply_by_xpower_minus_one(ref, p, -c);
    EXPECT_LE(max_torus_distance(got, ref), 1e-7) << "c=" << c;
  }
}

TEST(Engine, AddConstantIsConstantPolynomial) {
  const int n = 128;
  DoubleFftEngine eng(n);
  SpectralD s(n / 2);
  s.clear();
  const Torus32 g = double_to_torus32(0.124);
  eng.add_constant(s, g);
  TorusPolynomial out(n);
  eng.from_spectral_torus(s, out);
  EXPECT_LE(torus_distance(out.coeffs[0], g), 1e-8);
  for (int i = 1; i < n; ++i) {
    EXPECT_LE(torus_distance(out.coeffs[i], 0), 1e-8) << i;
  }
}

TEST(Engine, LinearityOfTransform) {
  const int n = 256;
  Rng rng(7);
  DoubleFftEngine eng(n);
  const TorusPolynomial p = random_torus(rng, n), q = random_torus(rng, n);
  SpectralD sp, sq, ssum;
  eng.to_spectral_torus(p, sp);
  eng.to_spectral_torus(q, sq);
  eng.to_spectral_torus(p + q, ssum);
  // Wrapped torus sums can differ from real sums by integer multiples of
  // 2^32 in the spectral domain; verify via the inverse instead.
  for (int k = 0; k < n / 2; ++k) sp.v[k] += sq.v[k];
  TorusPolynomial from_sum(n), from_add(n);
  eng.from_spectral_torus(ssum, from_sum);
  eng.from_spectral_torus(sp, from_add);
  EXPECT_LE(max_torus_distance(from_sum, from_add), 1e-7);
}

TEST(Engine, CountersTrackCalls) {
  const int n = 64;
  DoubleFftEngine eng(n);
  eng.counters().reset();
  Rng rng(8);
  const TorusPolynomial p = random_torus(rng, n);
  SpectralD s;
  eng.to_spectral_torus(p, s);
  eng.to_spectral_torus(p, s);
  TorusPolynomial out(n);
  eng.from_spectral_torus(s, out);
  EXPECT_EQ(eng.counters().to_spectral_calls, 2);
  EXPECT_EQ(eng.counters().from_spectral_calls, 1);
  EXPECT_GT(eng.counters().to_spectral_ns, 0);
}

TEST(Engine, BitReversalOnlyInBreadthFirstFlow) {
  const int n = 256;
  Rng rng(9);
  const TorusPolynomial p = random_torus(rng, n);
  SpectralD s;
  DoubleFftEngine bf(n, FftFlow::kBreadthFirstCooleyTukey);
  bf.to_spectral_torus(p, s);
  EXPECT_GT(bf.counters().bitrev_swaps, 0);
  DoubleFftEngine df(n, FftFlow::kDepthFirstConjugatePair);
  df.to_spectral_torus(p, s);
  EXPECT_EQ(df.counters().bitrev_swaps, 0);
}

} // namespace
} // namespace matcha
