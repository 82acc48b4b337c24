#include "tfhe/functional.h"

#include <cassert>

#include "noise/audit.h"

namespace matcha {

TorusPolynomial make_lut_testvector(int n_ring,
                                    std::span<const Torus32> values) {
  const int slots = static_cast<int>(values.size());
  assert(slots > 0 && n_ring % slots == 0);
  TorusPolynomial testv(n_ring);
  // Phase p in slot i satisfies round(2N p) in [i*N/slots, (i+1)*N/slots):
  // fill that coefficient band with values[i].
  const int band = n_ring / slots;
  for (int i = 0; i < slots; ++i) {
    for (int j = 0; j < band; ++j) {
      testv.coeffs[i * band + j] = values[i];
    }
  }
  return testv;
}

LweSample encrypt_message(const LweKey& key, int value, int slots, double sigma,
                          Rng& rng) {
  return lwe_encrypt(key, encode_message(value, slots), sigma, rng);
}

int decrypt_message(const LweKey& key, const LweSample& c, int slots) {
  const DecodeAudit a = decode_message_audited(lwe_phase(key, c), slots);
  auto& audit = noise::MarginAudit::instance();
  if (audit.enabled()) audit.record(a);
  return a.value;
}

} // namespace matcha
