#include "tfhe/keyset.h"

#include "noise/audit.h"

namespace matcha {

SecretKeyset SecretKeyset::generate(const TfheParams& p, Rng& rng) {
  SecretKeyset sk;
  sk.params = p;
  sk.lwe = LweKey::generate(p.lwe, rng);
  sk.tlwe = TLweKey::generate(p.ring, rng);
  sk.extracted = sk.tlwe.extract_lwe_key();
  return sk;
}

LweSample SecretKeyset::encrypt_bit(int bit, Rng& rng) const {
  return lwe_encrypt_bit(lwe, bit, params.mu(), params.lwe.sigma, rng);
}

int SecretKeyset::decrypt_bit(const LweSample& c) const {
  return decrypt_bit_audited(c).value;
}

DecodeAudit SecretKeyset::decrypt_bit_audited(const LweSample& c) const {
  const DecodeAudit a = decode_bit_audited(lwe_phase(lwe, c), params.mu());
  auto& audit = noise::MarginAudit::instance();
  if (audit.enabled()) audit.record(a);
  return a;
}

CloudKeyset make_cloud_keyset(const SecretKeyset& sk, int unroll_m, Rng& rng) {
  CloudKeyset ck;
  ck.params = sk.params;
  ck.bk = make_unrolled_bootstrap_key(sk.lwe, sk.tlwe, sk.params.gadget,
                                      unroll_m, rng);
  ck.ks = make_keyswitch_key(sk.extracted, sk.lwe, sk.params.ks, rng);
  return ck;
}

} // namespace matcha
