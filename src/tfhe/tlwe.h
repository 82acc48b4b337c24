// Ring LWE over the torus (TLWE in the paper's notation, k = 1): samples
// (a, b) in T_N[X] x T_N[X] with b = s*a + e + mu. The bootstrapping
// accumulator ACC is a TLweSample; sample_extract_at is the one
// SampleExtract, reading any coefficient of it out as an N-LWE sample.
#pragma once

#include "common/rng.h"
#include "math/polynomial.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace matcha {

struct TLweKey {
  RingParams params;
  IntPolynomial s; ///< binary-coefficient secret polynomial

  static TLweKey generate(const RingParams& p, Rng& rng);

  /// Extract the N-dimensional scalar LWE key whose samples SampleExtract
  /// produces (paper: s' = KeyExtract(s'')).
  LweKey extract_lwe_key() const;
};

struct TLweSample {
  TorusPolynomial a, b;

  TLweSample() = default;
  explicit TLweSample(int n_ring) : a(n_ring), b(n_ring) {}
  int n_ring() const { return a.size(); }

  /// Noiseless sample (0, mu).
  static TLweSample trivial(const TorusPolynomial& mu);

  TLweSample& operator+=(const TLweSample& rhs) { a += rhs.a; b += rhs.b; return *this; }
  TLweSample& operator-=(const TLweSample& rhs) { a -= rhs.a; b -= rhs.b; return *this; }
};

/// Fresh encryption of polynomial message mu. The s*a product is evaluated
/// with the supplied engine (the client-side encryptor uses the exact double
/// engine; see keyset.h).
template <class Engine>
TLweSample tlwe_encrypt(const Engine& eng, const TLweKey& key,
                        const typename Engine::Spectral& key_spectral,
                        const TorusPolynomial& mu, double sigma, Rng& rng) {
  const int n = key.params.n_ring;
  TLweSample c(n);
  for (auto& coef : c.a.coeffs) coef = rng.uniform_torus();

  typename Engine::Spectral a_spec;
  eng.to_spectral_torus(c.a, a_spec);
  // b = s*a: treat the binary key as "digits" so the integer engine's scaling
  // convention (digit x torus) applies uniformly.
  typename Engine::SpectralAcc acc;
  eng.acc_init(acc);
  eng.mac(acc, key_spectral, a_spec);
  eng.from_spectral_acc(acc, c.b);

  for (int i = 0; i < n; ++i) {
    c.b.coeffs[i] += rng.gaussian_torus(sigma, mu.coeffs[i]);
  }
  return c;
}

/// Exact phase b - s*a via the schoolbook product (tests / noise metering).
TorusPolynomial tlwe_phase(const TLweKey& key, const TLweSample& c);

/// Extract the LWE sample encrypting coefficient j of the message (paper
/// Algorithm 1, line 8, reads j = 0; the multi-output LUT path reads one
/// rotated accumulator at several offsets). out is resized to N and
/// overwritten, so a reused out allocates nothing.
void sample_extract_at(const TLweSample& c, int j, LweSample& out);

} // namespace matcha
