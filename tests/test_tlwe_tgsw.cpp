#include <gtest/gtest.h>

#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

template <class Engine>
typename Engine::Spectral key_spectral(const Engine& eng, const TLweKey& key) {
  typename Engine::Spectral s;
  eng.to_spectral_int(key.s, s);
  return s;
}

TEST(TLwe, EncryptPhaseRecoversMessage) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(1);
  const int n = K.params.ring.n_ring;
  TorusPolynomial mu(n);
  for (int i = 0; i < n; ++i) mu.coeffs[i] = torus_fraction(i % 8, 8);
  const auto ks = key_spectral(K.deng, K.sk.tlwe);
  const TLweSample c =
      tlwe_encrypt(K.deng, K.sk.tlwe, ks, mu, K.params.ring.sigma, rng);
  const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, c);
  EXPECT_LE(max_torus_distance(phase, mu), 1e-5);
}

TEST(TLwe, HomomorphicAdd) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(2);
  const int n = K.params.ring.n_ring;
  TorusPolynomial mu1(n), mu2(n);
  for (int i = 0; i < n; ++i) {
    mu1.coeffs[i] = rng.uniform_torus() >> 4;
    mu2.coeffs[i] = rng.uniform_torus() >> 4;
  }
  const auto ks = key_spectral(K.deng, K.sk.tlwe);
  TLweSample c1 = tlwe_encrypt(K.deng, K.sk.tlwe, ks, mu1, K.params.ring.sigma, rng);
  const TLweSample c2 =
      tlwe_encrypt(K.deng, K.sk.tlwe, ks, mu2, K.params.ring.sigma, rng);
  c1 += c2;
  EXPECT_LE(max_torus_distance(tlwe_phase(K.sk.tlwe, c1), mu1 + mu2), 1e-5);
}

// Offset 0 is the gate bootstrap's read; the others are a multi-output
// LUT's, including both edges of the negacyclic wrap.
TEST(TLwe, SampleExtractAtEachOffset) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(3);
  const int n = K.params.ring.n_ring;
  TorusPolynomial mu(n);
  for (int i = 0; i < n; ++i) mu.coeffs[i] = rng.uniform_torus();
  const auto ks = key_spectral(K.deng, K.sk.tlwe);
  const TLweSample c =
      tlwe_encrypt(K.deng, K.sk.tlwe, ks, mu, K.params.ring.sigma, rng);
  LweSample ext;
  for (const int j : {0, 1, n / 2, n - 1}) {
    sample_extract_at(c, j, ext);
    EXPECT_EQ(ext.n(), n);
    EXPECT_LE(torus_distance(lwe_phase(K.sk.extracted, ext), mu.coeffs[j]),
              1e-5)
        << "offset " << j;
  }
}

TEST(TLwe, ExtractedKeyMatchesRingKey) {
  const auto& K = shared_keys();
  EXPECT_EQ(static_cast<int>(K.sk.extracted.s.size()), K.params.ring.n_ring);
  for (int i = 0; i < K.params.ring.n_ring; ++i) {
    EXPECT_EQ(K.sk.extracted.s[i], K.sk.tlwe.s.coeffs[i]);
  }
}

// ---- External products -----------------------------------------------------

template <class Engine>
void external_product_message_test(const Engine& eng, double tol) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(4);
  const int n = K.params.ring.n_ring;
  const auto& g = K.params.gadget;
  const auto ks_enc = key_spectral(K.deng, K.sk.tlwe); // encrypt w/ exact engine

  for (int32_t msg : {0, 1}) {
    const TGswSample tgsw = tgsw_encrypt(K.deng, K.sk.tlwe, ks_enc, g, msg,
                                         K.params.ring.sigma, rng);
    const auto tgsw_spec = tgsw_to_spectral(eng, tgsw);
    TorusPolynomial mu(n);
    for (int i = 0; i < n; ++i) mu.coeffs[i] = torus_fraction(i % 4, 8);
    TLweSample acc = TLweSample::trivial(mu);
    ExternalProductWorkspace<Engine> ws(eng, g);
    external_product(eng, g, tgsw_spec, acc, ws);
    const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, acc);
    if (msg == 0) {
      TorusPolynomial zero(n);
      EXPECT_LE(max_torus_distance(phase, zero), tol) << "msg=0";
    } else {
      EXPECT_LE(max_torus_distance(phase, mu), tol) << "msg=1";
    }
  }
}

TEST(TGsw, ExternalProductSelectsMessage_Double) {
  external_product_message_test(shared_keys().deng, 2e-4);
}

TEST(TGsw, ExternalProductSelectsMessage_Lift40) {
  external_product_message_test(shared_keys().leng, 2e-4);
}

TEST(TGsw, ExternalProductLinearInTlweOperand) {
  const auto& K = shared_keys();
  const auto& eng = K.deng;
  Rng rng = test::test_rng(5);
  const int n = K.params.ring.n_ring;
  const auto& g = K.params.gadget;
  const auto ks_enc = key_spectral(eng, K.sk.tlwe);
  const TGswSample tgsw =
      tgsw_encrypt(eng, K.sk.tlwe, ks_enc, g, 1, K.params.ring.sigma, rng);
  const auto spec = tgsw_to_spectral(eng, tgsw);

  TorusPolynomial mu(n);
  for (int i = 0; i < n; ++i) mu.coeffs[i] = torus_fraction(1, 16);
  TLweSample acc1 = TLweSample::trivial(mu);
  TLweSample acc2 = TLweSample::trivial(mu + mu);
  ExternalProductWorkspace<DoubleFftEngine> ws(eng, g);
  external_product(eng, g, spec, acc1, ws);
  external_product(eng, g, spec, acc2, ws);
  const TorusPolynomial p1 = tlwe_phase(K.sk.tlwe, acc1);
  const TorusPolynomial p2 = tlwe_phase(K.sk.tlwe, acc2);
  EXPECT_LE(max_torus_distance(p1 + p1, p2), 1e-3);
}

TEST(TGsw, GadgetRowsEncodeScaledMessages) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(6);
  const auto& g = K.params.gadget;
  const auto ks_enc = key_spectral(K.deng, K.sk.tlwe);
  const TGswSample tgsw =
      tgsw_encrypt(K.deng, K.sk.tlwe, ks_enc, g, 1, K.params.ring.sigma, rng);
  ASSERT_EQ(tgsw.rows_count(), 2 * g.l);
  // Rows l..2l-1 carry mu * Bg^{-(j+1)} in the b column: phase must equal it.
  for (int j = 0; j < g.l; ++j) {
    const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, tgsw.rows[g.l + j]);
    const Torus32 expect = 1u << (32 - (j + 1) * g.bg_bits);
    EXPECT_LE(torus_distance(phase.coeffs[0], expect), 1e-5) << "row " << j;
  }
}

TEST(TGsw, CMuxViaBundleZeroAndOne) {
  // CMux(TGSW(b), d1, d0) = d_b realized as acc + (X^0...) style external
  // products -- here simply: EP(TGSW(b), d1 - d0) + d0.
  const auto& K = shared_keys();
  const auto& eng = K.deng;
  Rng rng = test::test_rng(7);
  const int n = K.params.ring.n_ring;
  const auto& g = K.params.gadget;
  const auto ks_enc = key_spectral(eng, K.sk.tlwe);
  TorusPolynomial d0(n), d1(n);
  for (int i = 0; i < n; ++i) {
    d0.coeffs[i] = torus_fraction(1, 8);
    d1.coeffs[i] = torus_fraction(3, 8);
  }
  for (int32_t b : {0, 1}) {
    const TGswSample tgsw =
        tgsw_encrypt(eng, K.sk.tlwe, ks_enc, g, b, K.params.ring.sigma, rng);
    const auto spec = tgsw_to_spectral(eng, tgsw);
    TLweSample diff = TLweSample::trivial(d1);
    diff -= TLweSample::trivial(d0);
    ExternalProductWorkspace<DoubleFftEngine> ws(eng, g);
    external_product(eng, g, spec, diff, ws);
    diff += TLweSample::trivial(d0);
    const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, diff);
    EXPECT_LE(max_torus_distance(phase, b ? d1 : d0), 1e-3) << "b=" << b;
  }
}

TEST(TGsw, SpectralConversionRoundTrip) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(8);
  const auto& g = K.params.gadget;
  const auto ks_enc = key_spectral(K.deng, K.sk.tlwe);
  const TGswSample tgsw =
      tgsw_encrypt(K.deng, K.sk.tlwe, ks_enc, g, 1, K.params.ring.sigma, rng);
  const auto spec = tgsw_to_spectral(K.deng, tgsw);
  // Convert one row back and compare.
  TorusPolynomial back(K.params.ring.n_ring);
  K.deng.from_spectral_torus(spec.rows[0][0], back);
  EXPECT_EQ(back, tgsw.rows[0].a);
}

} // namespace
} // namespace matcha
