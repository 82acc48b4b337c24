#include <gtest/gtest.h>

#include "tfhe/functional.h"
#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

TEST(Encoding, RoundTrip) {
  for (int slots : {2, 4, 8}) {
    for (int v = 0; v < slots; ++v) {
      EXPECT_EQ(decode_message(encode_message(v, slots), slots), v);
    }
  }
}

TEST(Encoding, AllSlotsOnHalfTorus) {
  for (int v = 0; v < 8; ++v) {
    const double p = torus32_to_double(encode_message(v, 8));
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 0.5);
  }
}

TEST(Encoding, DecodeUsesCircularDistanceAtTheWraparound) {
  // Regression: decode_message used fabs(p - center) on the unwrapped phase,
  // so a TOP-slot phase whose noise pushes it past 1/2 lands at ~-0.5 in the
  // [-0.5, 0.5) representation and decoded as slot 0 (the nearest center on
  // the number line) instead of the top slot (the nearest center on the
  // torus). Symmetrically, a slot-0 phase dipping below 0 must stay slot 0.
  for (const int slots : {2, 4, 8}) {
    const Torus32 delta = torus_fraction(1, 8 * slots); // half the margin
    const Torus32 top = encode_message(slots - 1, slots);
    // Past the 1/2 boundary: top-slot center + 1.5x slot half-spacing.
    const Torus32 wrapped_up =
        top + torus_fraction(3, 8 * slots); // = 1/2 + delta, wraps negative
    EXPECT_LT(torus32_to_double(wrapped_up), 0.0) << "case must wrap";
    EXPECT_EQ(decode_message(wrapped_up, slots), slots - 1) << slots;
    // Below the 0 boundary: slot-0 center - 1.5x half-spacing.
    const Torus32 wrapped_down = encode_message(0, slots) - torus_fraction(3, 8 * slots);
    EXPECT_EQ(decode_message(wrapped_down, slots), 0) << slots;
    // Plain in-band noise still decodes to the perturbed slot.
    for (int v = 0; v < slots; ++v) {
      EXPECT_EQ(decode_message(encode_message(v, slots) + delta, slots), v);
      EXPECT_EQ(decode_message(encode_message(v, slots) - delta, slots), v);
    }
  }
}

TEST(Encoding, NoisyRoundTripAcrossSlotCounts) {
  // Randomized encode -> encrypt -> decrypt -> decode round-trips: phase
  // noise well inside the slot margin must never flip the decoded value,
  // including at the slot-0 and top-slot torus boundaries.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(6);
  for (const int slots : {2, 4, 8}) {
    for (int trial = 0; trial < 40; ++trial) {
      const int v = static_cast<int>(rng.uniform_below(static_cast<uint32_t>(slots)));
      const LweSample c =
          encrypt_message(K.sk.lwe, v, slots, K.params.lwe.sigma, rng);
      EXPECT_EQ(decrypt_message(K.sk.lwe, c, slots), v)
          << "slots=" << slots << " trial=" << trial;
    }
  }
}

TEST(Lut, TestVectorBandsAlign) {
  const Torus32 vals[4] = {1, 2, 3, 4};
  const TorusPolynomial tv = make_lut_testvector(256, vals);
  EXPECT_EQ(tv.coeffs[0], 1u);
  EXPECT_EQ(tv.coeffs[63], 1u);
  EXPECT_EQ(tv.coeffs[64], 2u);
  EXPECT_EQ(tv.coeffs[255], 4u);
}

class LutSweep : public ::testing::TestWithParam<int> {}; // slot count

TEST_P(LutSweep, IdentityLutPreservesMessages) {
  const auto& K = shared_keys();
  const int slots = GetParam();
  Rng rng = test::test_rng(1);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) vals[i] = encode_message(i, slots);
  const TorusPolynomial tv = make_lut_testvector(K.params.ring.n_ring, vals);
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  for (int v = 0; v < slots; ++v) {
    const LweSample c =
        encrypt_message(K.sk.lwe, v, slots, K.params.lwe.sigma, rng);
    const LweSample out = functional_bootstrap(K.deng, bk, K.ck2.ks, tv, c, ws);
    EXPECT_EQ(decrypt_message(K.sk.lwe, out, slots), v) << "slots=" << slots;
  }
}

INSTANTIATE_TEST_SUITE_P(Slots, LutSweep, ::testing::Values(2, 4, 8));

TEST(Lut, SquareModTable) {
  const auto& K = shared_keys();
  const int slots = 4;
  Rng rng = test::test_rng(2);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) {
    vals[i] = encode_message((i * i) % slots, slots);
  }
  const TorusPolynomial tv = make_lut_testvector(K.params.ring.n_ring, vals);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  for (int v = 0; v < slots; ++v) {
    const LweSample c =
        encrypt_message(K.sk.lwe, v, slots, K.params.lwe.sigma, rng);
    const LweSample out = functional_bootstrap(K.deng, bk, K.ck1.ks, tv, c, ws);
    EXPECT_EQ(decrypt_message(K.sk.lwe, out, slots), (v * v) % slots) << v;
  }
}

TEST(Lut, ThresholdActivation) {
  // ReLU-flavored: f(m) = m >= 2 ? m : 0 on 4 slots -- the encrypted-
  // inference primitive.
  const auto& K = shared_keys();
  const int slots = 4;
  Rng rng = test::test_rng(3);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) {
    vals[i] = encode_message(i >= 2 ? i : 0, slots);
  }
  const TorusPolynomial tv = make_lut_testvector(K.params.ring.n_ring, vals);
  const auto bk = load_bootstrap_key(K.leng, K.ck2.bk);
  BootstrapWorkspace<LiftFftEngine> ws(K.leng, K.params.gadget);
  for (int v = 0; v < slots; ++v) {
    const LweSample c =
        encrypt_message(K.sk.lwe, v, slots, K.params.lwe.sigma, rng);
    const LweSample out = functional_bootstrap(K.leng, bk, K.ck2.ks, tv, c, ws);
    EXPECT_EQ(decrypt_message(K.sk.lwe, out, slots), v >= 2 ? v : 0) << v;
  }
}

TEST(Lut, ChainsWithFreshNoise) {
  // f then g homomorphically == g(f(m)) in the clear; two bootstraps chain
  // because each refreshes the noise.
  const auto& K = shared_keys();
  const int slots = 4;
  Rng rng = test::test_rng(4);
  std::vector<Torus32> inc(slots), dbl(slots);
  for (int i = 0; i < slots; ++i) {
    inc[i] = encode_message((i + 1) % slots, slots);
    dbl[i] = encode_message((2 * i) % slots, slots);
  }
  const TorusPolynomial tv_inc = make_lut_testvector(K.params.ring.n_ring, inc);
  const TorusPolynomial tv_dbl = make_lut_testvector(K.params.ring.n_ring, dbl);
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  for (int v = 0; v < slots; ++v) {
    const LweSample c =
        encrypt_message(K.sk.lwe, v, slots, K.params.lwe.sigma, rng);
    const LweSample step1 =
        functional_bootstrap(K.deng, bk, K.ck2.ks, tv_inc, c, ws);
    const LweSample step2 =
        functional_bootstrap(K.deng, bk, K.ck2.ks, tv_dbl, step1, ws);
    EXPECT_EQ(decrypt_message(K.sk.lwe, step2, slots),
              (2 * ((v + 1) % slots)) % slots)
        << v;
  }
}

TEST(Lut, GateBootstrapIsTheConstantLutSpecialCase) {
  // A NAND-style sign bootstrap is the LUT with every slot = +mu; verify the
  // functional path reproduces the gate path on the same input.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(5);
  TorusPolynomial tv(K.params.ring.n_ring);
  for (auto& c : tv.coeffs) c = K.params.mu();
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  const LweSample in = lwe_encrypt(K.sk.lwe, torus_fraction(3, 8),
                                   K.params.lwe.sigma, rng);
  const LweSample via_lut =
      functional_bootstrap(K.deng, bk, K.ck1.ks, tv, in, ws);
  const LweSample via_gate =
      test::gate_bootstrap(K.deng, bk, K.ck1.ks, K.params.mu(), in, ws);
  EXPECT_EQ(lwe_decrypt_bit(K.sk.lwe, via_lut),
            lwe_decrypt_bit(K.sk.lwe, via_gate));
}

} // namespace
} // namespace matcha
