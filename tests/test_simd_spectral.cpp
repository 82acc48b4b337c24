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

class SimdEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, SimdLevel>> {};

TEST_P(SimdEngineSweep, ProductMatchesSchoolbookExactly) {
  const auto [n, level] = GetParam();
  if (!simd_level_available(level)) {
    GTEST_SKIP() << "host cannot run " << simd_level_name(level);
  }
  Rng rng(3);
  SimdFftEngine eng(n, level);
  const IntPolynomial a = random_digits(rng, n);
  const TorusPolynomial b = random_torus(rng, n);
  TorusPolynomial ref(n);
  negacyclic_multiply_reference(ref, a, b);

  SpectralP sa, sb, acc;
  eng.to_spectral_int(a, sa);
  eng.to_spectral_torus(b, sb);
  eng.acc_init(acc);
  eng.mac(acc, sa, sb);
  TorusPolynomial out(n);
  eng.from_spectral_acc(acc, out);
  EXPECT_EQ(out, ref);
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
  SpectralP s;
  eng.to_spectral_torus(p, s);
  TorusPolynomial back(n);
  eng.from_spectral_torus(s, back);
  EXPECT_EQ(back, p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdEngineSweep,
    ::testing::Combine(::testing::Values(8, 16, 64, 128, 256, 1024),
                       ::testing::Values(SimdLevel::kScalar, SimdLevel::kAvx2,
                                         SimdLevel::kAvx512)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             simd_level_name(std::get<1>(info.param));
    });

TEST(SimdEngine, MacAccumulatesMultipleRows) {
  const int n = 256;
  for (const SimdLevel level : testable_levels()) {
    Rng rng(5);
    SimdFftEngine eng(n, level);
    TorusPolynomial ref(n);
    SpectralP acc;
    eng.acc_init(acc);
    for (int r = 0; r < 6; ++r) {
      const IntPolynomial a = random_digits(rng, n);
      const TorusPolynomial b = random_torus(rng, n);
      negacyclic_multiply_add_reference(ref, a, b);
      SpectralP sa, sb;
      eng.to_spectral_int(a, sa);
      eng.to_spectral_torus(b, sb);
      eng.mac(acc, sa, sb);
    }
    TorusPolynomial out(n);
    eng.from_spectral_acc(acc, out);
    EXPECT_EQ(out, ref) << simd_level_name(level);
  }
}

TEST(SimdEngine, RotScaleAddMatchesCoefficientDomain) {
  const int n = 256;
  for (const SimdLevel level : testable_levels()) {
    Rng rng(6);
    SimdFftEngine eng(n, level);
    const TorusPolynomial p = random_torus(rng, n);
    for (int64_t c : {1, 5, 100, 255, 256, 300, 511, -3, -511}) {
      SpectralP sp, dst(n / 2);
      eng.to_spectral_torus(p, sp);
      dst.clear();
      eng.rot_scale_add(dst, sp, c);
      TorusPolynomial got(n);
      eng.from_spectral_torus(dst, got);
      TorusPolynomial ref(n);
      multiply_by_xpower_minus_one(ref, p, -c);
      EXPECT_LE(max_torus_distance(got, ref), 1e-7)
          << "c=" << c << " level=" << simd_level_name(level);
    }
  }
}

TEST(SimdEngine, AddConstantIsConstantPolynomial) {
  const int n = 128;
  for (const SimdLevel level : testable_levels()) {
    SimdFftEngine eng(n, level);
    SpectralP s(n / 2);
    const Torus32 g = double_to_torus32(0.124);
    eng.add_constant(s, g);
    TorusPolynomial out(n);
    eng.from_spectral_torus(s, out);
    EXPECT_LE(torus_distance(out.coeffs[0], g), 1e-8);
    for (int i = 1; i < n; ++i) {
      EXPECT_LE(torus_distance(out.coeffs[i], 0), 1e-8) << i;
    }
  }
}

TEST(SimdEngine, AddAssignMatchesLinearity) {
  const int n = 256;
  for (const SimdLevel level : testable_levels()) {
    Rng rng(7);
    SimdFftEngine eng(n, level);
    const TorusPolynomial p = random_torus(rng, n), q = random_torus(rng, n);
    SpectralP sp, sq, ssum;
    eng.to_spectral_torus(p, sp);
    eng.to_spectral_torus(q, sq);
    eng.to_spectral_torus(p + q, ssum);
    eng.add_assign(sp, sq);
    TorusPolynomial from_sum(n), from_add(n);
    eng.from_spectral_torus(ssum, from_sum);
    eng.from_spectral_torus(sp, from_add);
    EXPECT_LE(max_torus_distance(from_sum, from_add), 1e-7);
  }
}

// ---- transforms across levels ---------------------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

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
  const GadgetParams gadgets[] = {{.bg_bits = 10, .l = 3},
                                  {.bg_bits = 8, .l = 4},
                                  {.bg_bits = 8, .l = 3},
                                  {.bg_bits = 4, .l = 8}};
  Rng rng(8);
  const int n = 256;
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
            << "digit " << j << " level " << simd_level_name(level);
      }
    }
  }
}

// ---- external product + bootstrap: decrypt-path equivalence ---------------

TEST(SimdEngine, ExternalProductMatchesDoubleEngineDecryptPath) {
  const auto& K = test::shared_keys();
  const int n = K.params.ring.n_ring;
  Rng rng = test::test_rng(0x51D);
  SpectralD dkey_spec;
  K.deng.to_spectral_int(K.sk.tlwe.s, dkey_spec);
  const TGswSample raw =
      tgsw_encrypt(K.deng, K.sk.tlwe, dkey_spec, K.params.gadget, 1,
                   K.params.ring.sigma, rng);

  TLweSample acc0(n);
  for (auto& c : acc0.a.coeffs) c = rng.uniform_torus();
  for (auto& c : acc0.b.coeffs) c = rng.uniform_torus();

  // Reference: double engine.
  auto dtgsw = tgsw_to_spectral(K.deng, raw);
  ExternalProductWorkspace<DoubleFftEngine> dws(K.deng, K.params.gadget);
  TLweSample dacc = acc0;
  external_product(K.deng, K.params.gadget, dtgsw, dacc, dws);
  const TorusPolynomial dphase = tlwe_phase(K.sk.tlwe, dacc);

  for (const SimdLevel level : testable_levels()) {
    SimdFftEngine eng(n, level);
    auto stgsw = tgsw_to_spectral(eng, raw);
    ExternalProductWorkspace<SimdFftEngine> sws(eng, K.params.gadget);
    TLweSample sacc = acc0;
    eng.counters().reset();
    external_product(eng, K.params.gadget, stgsw, sacc, sws);
    // Ciphertexts differ in float round-off; phases agree to decrypt depth.
    const TorusPolynomial sphase = tlwe_phase(K.sk.tlwe, sacc);
    EXPECT_LE(max_torus_distance(sphase, dphase), 1e-6)
        << simd_level_name(level);
    // Counter scopes: exactly 2l forward + 2 inverse kernel invocations per
    // external product, each timed once (no nesting).
    EXPECT_EQ(eng.counters().to_spectral_calls, 2 * K.params.gadget.l);
    EXPECT_EQ(eng.counters().from_spectral_calls, 2);
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
