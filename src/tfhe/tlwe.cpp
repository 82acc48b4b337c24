#include "tfhe/tlwe.h"

#include <cassert>

namespace matcha {

TLweKey TLweKey::generate(const RingParams& p, Rng& rng) {
  assert(p.k == 1 && "this library implements the paper's k = 1 setting");
  TLweKey key;
  key.params = p;
  key.s = IntPolynomial(p.n_ring);
  for (auto& c : key.s.coeffs) c = rng.uniform_bit();
  return key;
}

LweKey TLweKey::extract_lwe_key() const {
  LweKey out;
  out.params.n = params.n_ring;
  out.params.sigma = params.sigma;
  out.s.assign(s.coeffs.begin(), s.coeffs.end());
  return out;
}

TLweSample TLweSample::trivial(const TorusPolynomial& mu) {
  TLweSample c(mu.size());
  c.b = mu;
  return c;
}

TorusPolynomial tlwe_phase(const TLweKey& key, const TLweSample& c) {
  TorusPolynomial sa(key.params.n_ring);
  negacyclic_multiply_reference(sa, key.s, c.a);
  TorusPolynomial phase = c.b;
  phase -= sa;
  return phase;
}

void sample_extract_at(const TLweSample& c, int j, LweSample& out) {
  // Coefficient j of the message: b_j - sum_i s_i * a'_i with
  // a'_i = a_{j-i} for i <= j and a'_i = -a_{N+j-i} for i > j (the
  // negacyclic transpose shifted to row j).
  const int n = c.n_ring();
  out.a.resize(static_cast<size_t>(n));
  for (int i = 0; i <= j; ++i) {
    out.a[static_cast<size_t>(i)] = c.a.coeffs[j - i];
  }
  for (int i = j + 1; i < n; ++i) {
    out.a[static_cast<size_t>(i)] = static_cast<Torus32>(-c.a.coeffs[n + j - i]);
  }
  out.b = c.b.coeffs[j];
}

} // namespace matcha
