// SIMD spectral engine: scalar-vs-SIMD bit-identity on decrypted gate
// outputs, exactness against the schoolbook reference, kernel-level
// equivalence across dispatch levels, alignment of the planar buffers, and
// the counter-scope contract (fig1_breakdown's "other" slice must never go
// negative). Runs under ASan/UBSan in the sanitize CI job, which exercises
// the alignment/aliasing contracts of every kernel level the host supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/simd_dispatch.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "fft/simd_fft.h"
#include "test_util.h"

namespace matcha {
namespace {

using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::Wire;
using test::testable_levels;

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

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- dispatch resolution --------------------------------------------------

TEST(SimdDispatch, ResolveHonorsOverrides) {
  const SimdLevel hw = SimdLevel::kAvx2;
  EXPECT_EQ(resolve_simd_level(nullptr, hw), hw);
  EXPECT_EQ(resolve_simd_level("", hw), hw);
  EXPECT_EQ(resolve_simd_level("native", hw), hw);
  EXPECT_EQ(resolve_simd_level("off", hw), SimdLevel::kScalar);
  EXPECT_EQ(resolve_simd_level("scalar", hw), SimdLevel::kScalar);
  EXPECT_EQ(resolve_simd_level("avx2", hw), SimdLevel::kAvx2);
  // Requesting an ISA the hardware lacks degrades to scalar, never crashes;
  // so does a tier the library does not ship.
  EXPECT_EQ(resolve_simd_level("neon", hw), SimdLevel::kScalar);
  EXPECT_EQ(resolve_simd_level("avx2", SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(resolve_simd_level("bogus", hw), SimdLevel::kScalar);
  // AVX-512 tier: honored on avx512 hardware, pinnable DOWN from it, and an
  // avx512 request on a narrower x86 tier degrades to that tier (never up,
  // never an illegal instruction).
  EXPECT_EQ(resolve_simd_level(nullptr, SimdLevel::kAvx512),
            SimdLevel::kAvx512);
  EXPECT_EQ(resolve_simd_level("avx512", SimdLevel::kAvx512),
            SimdLevel::kAvx512);
  EXPECT_EQ(resolve_simd_level("avx2", SimdLevel::kAvx512), SimdLevel::kAvx2);
  EXPECT_EQ(resolve_simd_level("off", SimdLevel::kAvx512), SimdLevel::kScalar);
  EXPECT_EQ(resolve_simd_level("avx512", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(resolve_simd_level("avx512", SimdLevel::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdDispatch, KernelTableMatchesAvailability) {
  // spectral_kernels() must return the named vtable for every level the host
  // can execute (lower x86 tiers stay runnable on wider hardware) and the
  // scalar set for any level it cannot (e.g. any vector tier on aarch64),
  // keeping every SimdLevel constructible.
  const SpectralKernels& scalar = spectral_kernels(SimdLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_available(lvl)) {
      EXPECT_STREQ(spectral_kernels(lvl).name, simd_level_name(lvl));
    } else {
      EXPECT_STREQ(spectral_kernels(lvl).name, "scalar");
    }
  }
}

// ---- planar layout + alignment -------------------------------------------

TEST(PlanarSpectral, BuffersAreCacheLineAligned) {
  for (const int m : {4, 64, 512}) {
    SpectralP s(m);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(s.re.data()) % kSpectralAlign, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(s.im.data()) % kSpectralAlign, 0u);
  }
  SimdFftEngine eng(256);
  ExternalProductWorkspace<SimdFftEngine> ws(eng, GadgetParams{});
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ws.digits.data()) % kSpectralAlign, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ws.spec.data()) % kSpectralAlign, 0u);
}

TEST(PlanarSpectral, StorageOrderIsAPermutation) {
  for (const int n : {16, 64, 256, 1024, 2048}) {
    const NegacyclicPlan plan(n);
    std::vector<bool> seen(static_cast<size_t>(plan.m), false);
    for (const int32_t f : plan.nat) {
      ASSERT_GE(f, 0);
      ASSERT_LT(f, plan.m);
      EXPECT_FALSE(seen[static_cast<size_t>(f)]);
      seen[static_cast<size_t>(f)] = true;
    }
    for (int k = 0; k < plan.m; ++k) {
      EXPECT_EQ(plan.ft1[static_cast<size_t>(k)],
                4 * plan.nat[static_cast<size_t>(k)] + 1);
    }
  }
}

// ---- exactness against the schoolbook reference ---------------------------
//
// Every check goes through the engine's two timed transforms (forward_raw,
// inverse_raw) and the kernels the fused bundle step runs (kernels()).

const int32_t* as_int32(const TorusPolynomial& p) {
  return reinterpret_cast<const int32_t*>(p.coeffs.data());
}

/// Inverse-transform the planar spectrum (re plane, then im) at `s`.
TorusPolynomial inverse(const SimdFftEngine& eng, const double* s) {
  TorusPolynomial out(eng.ring_n());
  eng.inverse_raw(s, s + eng.spectral_size(), out.coeffs.data());
  return out;
}

class SimdEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, SimdLevel>> {};

TEST_P(SimdEngineSweep, ProductMatchesSchoolbookExactly) {
  // One digit polynomial against one key row of two columns, through each
  // MAC kernel of the fused step: mac2_rows sets both column sums, mac2
  // accumulates them into zeroed planes, and scale_add adds the gadget
  // identity's real constant times the digit spectrum.
  const auto [n, level] = GetParam();
  if (!simd_level_available(level)) {
    GTEST_SKIP() << "host cannot run " << simd_level_name(level);
  }
  Rng rng(3);
  SimdFftEngine eng(n, level);
  const int m = eng.spectral_size();
  const IntPolynomial a = random_digits(rng, n);
  const TorusPolynomial b0 = random_torus(rng, n), b1 = random_torus(rng, n);
  TorusPolynomial ref0(n), ref1(n);
  negacyclic_multiply_reference(ref0, a, b0);
  negacyclic_multiply_reference(ref1, a, b1);

  // The digit spectrum [re | im] and the key row [b0.re | b0.im | b1.re |
  // b1.im], laid out as the fused step reads them.
  std::vector<double> s(2 * static_cast<size_t>(m)),
      key(4 * static_cast<size_t>(m));
  eng.forward_raw(a.coeffs.data(), s.data(), s.data() + m);
  eng.forward_raw(as_int32(b0), key.data(), key.data() + m);
  eng.forward_raw(as_int32(b1), key.data() + 2 * m, key.data() + 3 * m);
  const SpectralKernels& k = eng.kernels();

  // mac2_rows overwrites its outputs, so NaN in them must not survive.
  std::vector<double> acc(4 * static_cast<size_t>(m),
                          std::numeric_limits<double>::quiet_NaN());
  k.mac2_rows(m, 0, 1, s.data(), key.data(), acc.data(), acc.data() + m,
              acc.data() + 2 * m, acc.data() + 3 * m);
  EXPECT_EQ(inverse(eng, acc.data()), ref0) << "mac2_rows";
  EXPECT_EQ(inverse(eng, acc.data() + 2 * m), ref1) << "mac2_rows";

  std::fill(acc.begin(), acc.end(), 0.0);
  k.mac2(m, s.data(), s.data() + m, key.data(), key.data() + m,
         key.data() + 2 * m, key.data() + 3 * m, acc.data(), acc.data() + m,
         acc.data() + 2 * m, acc.data() + 3 * m);
  EXPECT_EQ(inverse(eng, acc.data()), ref0) << "mac2";
  EXPECT_EQ(inverse(eng, acc.data() + 2 * m), ref1) << "mac2";

  // + g * a for the gadget constant g = Bg^{-1} at bg_bits = 8, lifted to
  // int32 as the fused step lifts it.
  const Torus32 g = 1u << 24;
  k.scale_add(m, acc.data(), acc.data() + m, s.data(), s.data() + m,
              static_cast<double>(static_cast<int32_t>(g)));
  for (int i = 0; i < n; ++i) {
    ref0.coeffs[static_cast<size_t>(i)] +=
        g * static_cast<Torus32>(a.coeffs[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(inverse(eng, acc.data()), ref0) << "scale_add";
}

TEST_P(SimdEngineSweep, RoundTripIsIdentity) {
  // The bit-exact round trip bounds the engine's spectral error below half a
  // torus LSB -- far inside the fig8_fft_error tolerance for the double
  // engine (its measured error floor is < -250 dB; anything past ~-192 dB
  // would already break this exact test at N = 1024).
  const auto [n, level] = GetParam();
  if (!simd_level_available(level)) {
    GTEST_SKIP() << "host cannot run " << simd_level_name(level);
  }
  Rng rng(4);
  SimdFftEngine eng(n, level);
  const TorusPolynomial p = random_torus(rng, n);
  std::vector<double> s(static_cast<size_t>(n));
  eng.forward_raw(as_int32(p), s.data(), s.data() + n / 2);
  EXPECT_EQ(inverse(eng, s.data()), p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdEngineSweep,
    ::testing::Combine(::testing::Values(8, 16, 64, 128, 256, 1024, 2048),
                       ::testing::Values(SimdLevel::kScalar, SimdLevel::kAvx2,
                                         SimdLevel::kAvx512)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             simd_level_name(std::get<1>(info.param));
    });

TEST(SimdEngine, Mac2RowsAccumulatesMultipleRows) {
  // Rows [r0, rows) of a digit-spectrum arena against a key block, laid out
  // as the fused step lays them out: mac2_rows gives the sum of the per-row
  // schoolbook products on both columns for every row count (chunks of 3,
  // so 7 rows run 3 + 3 + 1) and for the pristine step's r0 = rows / 2, and
  // a mac2-per-row chain gives the same bits. N = 64 runs the any-size body,
  // N = 256 the m = 128 specialization.
  constexpr int kRows = 7;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int n : {64, 256}) {
    Rng rng(5);
    const int m = n / 2;
    const size_t sm = static_cast<size_t>(m);
    std::vector<IntPolynomial> a;
    std::vector<TorusPolynomial> b0, b1;
    std::vector<TorusPolynomial> p0(kRows, TorusPolynomial(n)),
        p1(kRows, TorusPolynomial(n));
    for (int r = 0; r < kRows; ++r) {
      a.push_back(random_digits(rng, n));
      b0.push_back(random_torus(rng, n));
      b1.push_back(random_torus(rng, n));
      negacyclic_multiply_reference(p0[static_cast<size_t>(r)], a.back(), b0.back());
      negacyclic_multiply_reference(p1[static_cast<size_t>(r)], a.back(), b1.back());
    }
    for (const SimdLevel level : testable_levels()) {
      SimdFftEngine eng(n, level);
      const SpectralKernels& k = eng.kernels();
      std::vector<double> spec(kRows * 2 * sm), key(kRows * 4 * sm);
      for (int r = 0; r < kRows; ++r) {
        const size_t ur = static_cast<size_t>(r);
        double* s = spec.data() + ur * 2 * sm;
        double* kb = key.data() + ur * 4 * sm;
        eng.forward_raw(a[ur].coeffs.data(), s, s + m);
        eng.forward_raw(as_int32(b0[ur]), kb, kb + m);
        eng.forward_raw(as_int32(b1[ur]), kb + 2 * m, kb + 3 * m);
      }
      for (int rows = 1; rows <= kRows; ++rows) {
        for (const int r0 : {0, rows / 2}) {
          SCOPED_TRACE(testing::Message() << "n " << n << " level "
                                          << k.name << " rows [" << r0
                                          << ", " << rows << ")");
          TorusPolynomial want0(n), want1(n);
          for (int r = r0; r < rows; ++r) {
            want0 += p0[static_cast<size_t>(r)];
            want1 += p1[static_cast<size_t>(r)];
          }
          std::vector<double> acc(4 * sm, nan), chain(4 * sm, 0.0);
          k.mac2_rows(m, r0, rows, spec.data(), key.data(), acc.data(),
                      acc.data() + m, acc.data() + 2 * m, acc.data() + 3 * m);
          EXPECT_EQ(inverse(eng, acc.data()), want0);
          EXPECT_EQ(inverse(eng, acc.data() + 2 * m), want1);
          for (int r = r0; r < rows; ++r) {
            const double* s = spec.data() + static_cast<size_t>(r) * 2 * sm;
            const double* kb = key.data() + static_cast<size_t>(r) * 4 * sm;
            k.mac2(m, s, s + m, kb, kb + m, kb + 2 * m, kb + 3 * m,
                   chain.data(), chain.data() + m, chain.data() + 2 * m,
                   chain.data() + 3 * m);
          }
          EXPECT_TRUE(same_bits(chain, acc));
        }
      }
    }
  }
}

TEST(SimdEngine, RotScaleAddMatchesCoefficientDomain) {
  const int n = 256;
  const int m = n / 2;
  for (const SimdLevel level : testable_levels()) {
    Rng rng(6);
    SimdFftEngine eng(n, level);
    const TorusPolynomial p = random_torus(rng, n);
    std::vector<double> sp(static_cast<size_t>(n));
    eng.forward_raw(as_int32(p), sp.data(), sp.data() + m);
    for (int64_t c : {1, 5, 100, 255, 256, 300, 511, -3, -511}) {
      std::vector<double> dst(static_cast<size_t>(n), 0.0);
      eng.kernels().rot_scale_add(eng.plan(), dst.data(), dst.data() + m,
                                  sp.data(), sp.data() + m, c);
      TorusPolynomial ref(n);
      multiply_by_xpower_minus_one(ref, p, -c);
      EXPECT_LE(max_torus_distance(inverse(eng, dst.data()), ref), 1e-7)
          << "c=" << c << " level=" << simd_level_name(level);
    }
  }
}

TEST(SimdEngine, TransformIsLinear) {
  const int n = 256;
  const int m = n / 2;
  for (const SimdLevel level : testable_levels()) {
    Rng rng(7);
    SimdFftEngine eng(n, level);
    const TorusPolynomial p = random_torus(rng, n), q = random_torus(rng, n);
    const TorusPolynomial sum = p + q;
    std::vector<double> sp(static_cast<size_t>(n)), sq(sp.size()),
        ssum(sp.size());
    eng.forward_raw(as_int32(p), sp.data(), sp.data() + m);
    eng.forward_raw(as_int32(q), sq.data(), sq.data() + m);
    eng.forward_raw(as_int32(sum), ssum.data(), ssum.data() + m);
    for (size_t k = 0; k < sp.size(); ++k) sp[k] += sq[k];
    EXPECT_LE(max_torus_distance(inverse(eng, ssum.data()),
                                 inverse(eng, sp.data())),
              1e-7);
  }
}

// ---- transforms across levels ---------------------------------------------

TEST(SimdEngine, TransformsAgreeAcrossTiers) {
  // N = 16 runs a pair pass after its twist stage; N = 64, 256 and 1024 end
  // in the leaf (last radix-4 stage + pair stage fused per 8-slot block).
  // On every tier the host runs, the forward spectra match the scalar
  // tier's to 2^-40 of the largest magnitude, and the inverse of the scalar
  // spectra rounds to the scalar tier's coefficients. Buffers pre-filled
  // with NaN give the same bits as zeroed ones: the forward writes every
  // output slot, and the inverse reads its wre/wim scratch only where it
  // wrote it (the scratch planes themselves are compared too).
  const SpectralKernels& scalar = spectral_kernels(SimdLevel::kScalar);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(9);
  for (const int n : {16, 64, 256, 1024}) {
    const NegacyclicPlan plan(n);
    const int m = plan.m;
    const size_t planes = 2 * static_cast<size_t>(m); // re | im
    std::vector<std::vector<int32_t>> inputs;
    for (int i = 0; i < 200; ++i) {
      const TorusPolynomial t = random_torus(rng, n);
      inputs.emplace_back(t.coeffs.begin(), t.coeffs.end());
      inputs.push_back(random_digits(rng, n).coeffs);
    }
    for (const SimdLevel level : testable_levels()) {
      if (level == SimdLevel::kScalar) continue;
      const SpectralKernels& k = spectral_kernels(level);
      for (size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "n " << n << " level "
                                        << k.name << " input " << i);
        const int32_t* in = inputs[i].data();
        std::vector<double> want(planes), zeroed(planes, 0.0),
            filled(planes, nan);
        scalar.forward(plan, in, want.data(), want.data() + m);
        k.forward(plan, in, zeroed.data(), zeroed.data() + m);
        k.forward(plan, in, filled.data(), filled.data() + m);
        double peak = 0;
        for (const double v : want) peak = std::max(peak, std::abs(v));
        const double tol = std::ldexp(peak, -40);
        for (size_t s = 0; s < planes; ++s) {
          ASSERT_LE(std::abs(zeroed[s] - want[s]), tol) << "slot " << s;
        }
        ASSERT_TRUE(same_bits(zeroed, filled));

        std::vector<uint32_t> want_out(static_cast<size_t>(n)),
            out(static_cast<size_t>(n)), out_filled(static_cast<size_t>(n));
        std::vector<double> scratch(planes, 0.0), scratch_filled(planes, nan);
        scalar.inverse_torus(plan, want.data(), want.data() + m,
                             scratch.data(), scratch.data() + m,
                             want_out.data());
        std::fill(scratch.begin(), scratch.end(), 0.0);
        k.inverse_torus(plan, want.data(), want.data() + m, scratch.data(),
                        scratch.data() + m, out.data());
        k.inverse_torus(plan, want.data(), want.data() + m,
                        scratch_filled.data(), scratch_filled.data() + m,
                        out_filled.data());
        ASSERT_EQ(out, want_out);
        ASSERT_EQ(out_filled, out);
        ASSERT_TRUE(same_bits(scratch, scratch_filled));
      }
    }
  }
}

// ---- decompose kernel equivalence across levels ---------------------------

TEST(SimdEngine, DecomposeBitIdenticalAcrossLevels) {
  // n = 8 is below AVX-512's 16 uint32 lanes, so that tier runs it entirely
  // in its scalar tail; n = 256 runs every vector body.
  const GadgetParams gadgets[] = {{.bg_bits = 10, .l = 3},
                                  {.bg_bits = 8, .l = 4},
                                  {.bg_bits = 8, .l = 3},
                                  {.bg_bits = 4, .l = 8}};
  Rng rng(8);
  for (const int n : {8, 256}) {
    const TorusPolynomial p = random_torus(rng, n);
    for (const GadgetParams& g : gadgets) {
      // Reference digits via the documented per-coefficient semantics.
      std::vector<IntPolynomial> want(static_cast<size_t>(g.l),
                                      IntPolynomial(n));
      for (int i = 0; i < n; ++i) {
        int32_t d[32];
        decompose_coefficient(g, p.coeffs[static_cast<size_t>(i)], d);
        for (int j = 0; j < g.l; ++j) want[static_cast<size_t>(j)].coeffs[i] = d[j];
      }
      for (const SimdLevel level : testable_levels()) {
        std::vector<IntPolynomial> got(static_cast<size_t>(g.l),
                                       IntPolynomial(n));
        int32_t* planes[32];
        for (int j = 0; j < g.l; ++j) planes[j] = got[static_cast<size_t>(j)].coeffs.data();
        spectral_kernels(level).decompose(g.l, g.bg_bits, g.rounding_offset(),
                                          n, p.coeffs.data(), planes);
        for (int j = 0; j < g.l; ++j) {
          EXPECT_EQ(got[static_cast<size_t>(j)].coeffs,
                    want[static_cast<size_t>(j)].coeffs)
              << "n " << n << " digit " << j << " level "
              << simd_level_name(level);
        }
      }
    }
  }
}

// ---- index kernels across levels ------------------------------------------

TEST(SimdEngine, IndexKernelsBitIdenticalAcrossLevels) {
  // rot_factor is two table gathers per slot and ks_gather_b an integer sum,
  // so every tier matches their per-slot definitions bit for bit. The vector
  // bodies of
  // rot_scale_add share one fmadd/fnmadd association, so avx2 and avx512
  // agree bit for bit wherever both run only vector bodies (m a multiple of
  // 8). N = 8 (m = 4) runs AVX-512's rotation kernels entirely in their
  // simd::Scalar tail, whose products are fused only where the compiler
  // contracts them (GCC at -O2, not at -O0), so there the two tiers agree
  // to rounding. Row counts 1, 7, 17 and 100 end in a tail on both vector
  // tiers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t exponents[] = {1, 5, 100, 255, 511, -3, -511, 4097, 123456789};
  Rng rng(10);
  for (const int n : {8, 16, 64, 1024}) {
    const NegacyclicPlan plan(n);
    const int m = plan.m;
    const size_t planes = 2 * static_cast<size_t>(m); // re | im
    std::vector<double> src(planes), acc(planes);
    for (double& x : src) x = static_cast<int32_t>(rng.uniform_torus());
    for (double& x : acc) x = static_cast<int32_t>(rng.uniform_torus());
    const double tol = std::ldexp(0x1p31, -40); // |src|, |acc| <= 2^31
    for (const int64_t c : exponents) {
      SCOPED_TRACE(testing::Message() << "n " << n << " c " << c);
      // X^{-c} - 1 at slot k: rot[ft1[k] * c mod 2N] - 1.
      const int64_t two_n = 2 * static_cast<int64_t>(n);
      const uint64_t cm = static_cast<uint64_t>((c % two_n + two_n) % two_n);
      std::vector<double> want(planes);
      for (int k = 0; k < m; ++k) {
        const size_t idx = static_cast<size_t>(
            static_cast<uint64_t>(plan.ft1[static_cast<size_t>(k)]) * cm %
            static_cast<uint64_t>(two_n));
        want[static_cast<size_t>(k)] = plan.rot_re[idx] - 1.0;
        want[static_cast<size_t>(m + k)] = plan.rot_im[idx];
      }
      std::vector<double> vector_sum; // the first vector tier's rot_scale_add
      for (const SimdLevel level : testable_levels()) {
        const SpectralKernels& k = spectral_kernels(level);
        std::vector<double> got(planes, nan);
        k.rot_factor(plan, got.data(), got.data() + m, c);
        EXPECT_TRUE(same_bits(got, want)) << k.name;
        if (level == SimdLevel::kScalar) continue;
        std::vector<double> sum = acc;
        k.rot_scale_add(plan, sum.data(), sum.data() + m, src.data(),
                        src.data() + m, c);
        if (vector_sum.empty()) {
          vector_sum = sum;
        } else if (m % 8 == 0) {
          EXPECT_TRUE(same_bits(sum, vector_sum)) << k.name;
        } else {
          for (size_t s = 0; s < planes; ++s) {
            EXPECT_NEAR(sum[s], vector_sum[s], tol) << k.name << " slot " << s;
          }
        }
      }
    }
  }
  for (const int base : {2, 4, 16}) {
    for (const int rows : {1, 7, 17, 100, 8192}) {
      std::vector<uint32_t> d(static_cast<size_t>(rows)),
          b_plane(static_cast<size_t>(rows) * (base - 1));
      for (uint32_t& v : d) v = rng.uniform_below(static_cast<uint32_t>(base));
      for (uint32_t& v : b_plane) v = rng.uniform_torus();
      uint32_t want = 0; // a zero digit selects no key row
      for (size_t r = 0; r < d.size(); ++r) {
        if (d[r] != 0) want += b_plane[r * (base - 1) + d[r] - 1];
      }
      for (const SimdLevel level : testable_levels()) {
        EXPECT_EQ(spectral_kernels(level).ks_gather_b(d.data(), b_plane.data(),
                                                      rows, base),
                  want)
            << "base " << base << " rows " << rows << " level "
            << simd_level_name(level);
      }
    }
  }
}

// ---- bundle step + bootstrap: decrypt-path equivalence --------------------

TEST(SimdEngine, FusedStepMatchesDoubleEngineDecryptPath) {
  // One m = 2 bundle step, every subset active: the fused bundle_rotate_step
  // on every tier against the Double engine's materialized build_bundle +
  // external_product. Ciphertexts differ in float round-off; phases agree to
  // decrypt depth. The counters pin each case's transform work.
  const auto& K = test::shared_keys();
  const int n = K.params.ring.n_ring;
  const GadgetParams& gd = K.params.gadget;
  const int l = gd.l;
  UnrolledBootstrapKey cloud; // the first group of the m = 2 key
  cloud.unroll_m = 2;
  cloud.n_lwe = 2;
  cloud.ring = K.params.ring;
  cloud.gadget = gd;
  cloud.groups = {K.ck2.bk.groups[0]};
  const std::vector<int32_t> exponents{37, 301, 338};

  // Steady state: a random ACC. Pristine: ACC = (0, testv * X^{-barb}) for
  // the constant gate test vector.
  Rng rng = test::test_rng(0x51D);
  TLweSample steady(n);
  for (auto& c : steady.a.coeffs) c = rng.uniform_torus();
  for (auto& c : steady.b.coeffs) c = rng.uniform_torus();
  const Torus32 mu = K.params.mu();
  TorusPolynomial testv(n), testv_rot(n);
  for (auto& c : testv.coeffs) c = mu;
  LweSample x(K.params.lwe.n);
  x.b = rng.uniform_torus();
  TLweSample pristine(n);
  BlindRotateState pristine_st;
  blind_rotate_init(K.deng, x, testv, testv_rot, pristine, pristine_st);

  const auto dkey = load_bootstrap_key(K.deng, cloud);
  auto bundle = make_bundle_storage(K.deng, gd);
  ExternalProductWorkspace<DoubleFftEngine> dws(K.deng, gd);
  const auto reference = [&](TLweSample acc, bool a_is_zero) {
    EXPECT_TRUE(build_bundle(K.deng, gd, dkey.groups[0], exponents, bundle));
    external_product(K.deng, gd, bundle, acc, dws, a_is_zero);
    return tlwe_phase(K.sk.tlwe, acc);
  };
  const TorusPolynomial want_steady = reference(steady, false);
  const TorusPolynomial want_pristine = reference(pristine, true);

  GateTestvSpectra tc;
  set_gate_testv_digits(tc, mu, gd);
  for (const SimdLevel level : testable_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    SimdFftEngine eng(n, level);
    const auto skey = load_bootstrap_key(eng, cloud);
    BootstrapWorkspace<SimdFftEngine> ws(eng, gd);
    const EngineCounters& ctr = eng.counters();

    TLweSample acc = steady;
    BlindRotateState st{.barb = 0, .pristine = false};
    eng.counters().reset();
    bundle_rotate_step(eng, skey, 0, exponents, acc, ws.bundle, ws.ep, st,
                       nullptr);
    EXPECT_LE(max_torus_distance(tlwe_phase(K.sk.tlwe, acc), want_steady),
              1e-6);
    EXPECT_EQ(ctr.to_spectral_calls, 2 * l);
    EXPECT_EQ(ctr.from_spectral_calls, 2);
    EXPECT_EQ(ctr.zero_fft_skips, 0);
    EXPECT_EQ(ctr.testv_fft_reuses, 0);

    // The pristine step with the cached test vector runs no forward FFT:
    // the a-digits vanish and the b-digit spectra come from F(ones).
    acc = pristine;
    st = pristine_st;
    eng.counters().reset();
    bundle_rotate_step(eng, skey, 0, exponents, acc, ws.bundle, ws.ep, st,
                       &tc);
    EXPECT_LE(max_torus_distance(tlwe_phase(K.sk.tlwe, acc), want_pristine),
              1e-6);
    EXPECT_EQ(ctr.to_spectral_calls, 0);
    EXPECT_EQ(ctr.from_spectral_calls, 2);
    EXPECT_EQ(ctr.zero_fft_skips, l);
    EXPECT_EQ(ctr.testv_fft_reuses, l);
    EXPECT_FALSE(st.pristine);
  }
}

/// A small random DAG over the binary gate alphabet + NOT + MUX.
struct RandomCircuit {
  CircuitBuilder b;
  std::vector<Wire> wires;
  int num_inputs;

  RandomCircuit(Rng& rng, int inputs, int gates) : num_inputs(inputs) {
    for (int i = 0; i < inputs; ++i) wires.push_back(b.input());
    for (int g = 0; g < gates; ++g) {
      const auto pick = [&] {
        return wires[rng.uniform_below(static_cast<uint32_t>(wires.size()))];
      };
      Wire w;
      switch (rng.uniform_below(8)) {
        case 0: w = b.gate_and(pick(), pick()); break;
        case 1: w = b.gate_or(pick(), pick()); break;
        case 2: w = b.gate_xor(pick(), pick()); break;
        case 3: w = b.gate_nand(pick(), pick()); break;
        case 4: w = b.gate_nor(pick(), pick()); break;
        case 5: w = b.gate_xnor(pick(), pick()); break;
        case 6: w = b.gate_not(pick()); break;
        default: w = b.gate_mux(pick(), pick(), pick()); break;
      }
      wires.push_back(w);
      b.mark_output(w);
    }
  }
};

TEST(SimdEngine, RandomCircuitsDecryptBitIdenticalScalarVsSimdVsReference) {
  const auto& K = test::shared_keys();
  const int n_ring = K.params.ring.n_ring;
  const auto dk_d = load_device_keyset(K.deng, K.ck2);
  SimdFftEngine seng(n_ring);
  const auto dk_s = load_device_keyset(seng, K.ck2);

  Rng shape_rng = test::test_rng(0x51DC1C);
  for (int trial = 0; trial < 2; ++trial) {
    const int inputs = 3 + static_cast<int>(shape_rng.uniform_below(3));
    const int gates = 7 + static_cast<int>(shape_rng.uniform_below(4));
    RandomCircuit c(shape_rng, inputs, gates);

    std::vector<bool> plain;
    Rng bit_rng = test::test_rng(77 + trial);
    for (int i = 0; i < inputs; ++i) plain.push_back(bit_rng.uniform_below(2) != 0);
    const auto encrypt_inputs = [&](Rng& rng) {
      std::vector<LweSample> in;
      for (int i = 0; i < inputs; ++i) {
        in.push_back(K.sk.encrypt_bit(plain[static_cast<size_t>(i)] ? 1 : 0, rng));
      }
      return in;
    };

    // Reference decrypted bits: double engine, single thread.
    BatchExecutor<DoubleFftEngine> dex(
        [&] { return std::make_unique<DoubleFftEngine>(n_ring); }, dk_d.bk,
        *dk_d.ks, K.params.mu(), 1);
    Rng rng_ref = test::test_rng(1234 + trial);
    const BatchResult ref = dex.run(c.b.graph(), encrypt_inputs(rng_ref));
    std::vector<int> want;
    for (size_t w = static_cast<size_t>(inputs); w < c.wires.size(); ++w) {
      want.push_back(K.sk.decrypt_bit(ref.at(c.wires[w])));
    }

    // Scalar and SIMD kernel levels, across thread counts: decrypted gate
    // outputs must be bit-identical to the reference on every wire.
    for (const SimdLevel level : testable_levels()) {
      for (const int threads : {1, 2}) {
        BatchExecutor<SimdFftEngine> ex(
            [&] { return std::make_unique<SimdFftEngine>(n_ring, level); },
            dk_s.bk, *dk_s.ks, K.params.mu(), threads);
        Rng rng_run = test::test_rng(1234 + trial); // identical ciphertexts
        const BatchResult got = ex.run(c.b.graph(), encrypt_inputs(rng_run));
        for (size_t w = static_cast<size_t>(inputs); w < c.wires.size(); ++w) {
          EXPECT_EQ(K.sk.decrypt_bit(got.at(c.wires[w])),
                    want[w - static_cast<size_t>(inputs)])
              << "trial " << trial << " level " << simd_level_name(level)
              << " threads " << threads << " wire " << w;
        }
      }
    }
  }
}

// ---- counter scope contract (rider bugfix regression) ---------------------

TEST(SimdEngine, GateBreakdownSlicesSumSanely) {
  const auto& K = test::shared_keys();
  SimdFftEngine eng(K.params.ring.n_ring);
  const auto dk = load_device_keyset(eng, K.ck2);
  auto ev = dk.make_evaluator(eng, K.params.mu());
  Rng rng = test::test_rng(0xB4EA);
  const LweSample a = K.sk.encrypt_bit(1, rng);
  const LweSample b = K.sk.encrypt_bit(0, rng);
  for (int i = 0; i < 3; ++i) (void)ev.gate_nand(a, b);
  const GateBreakdown& bd = ev.breakdown(GateKind::kNand);
  ASSERT_EQ(bd.gates, 3);
  // Fused kernels must attribute each phase at most once: the IFFT + FFT
  // slices can never exceed the measured bootstrap wall, i.e. "other" >= 0.
  EXPECT_GE(bd.other_ns, 0);
  EXPECT_LE(bd.ifft_ns + bd.fft_ns, bd.total_ns);
  EXPECT_GT(bd.ifft_ns, 0);
  EXPECT_GT(bd.fft_ns, 0);
}

} // namespace
} // namespace matcha
