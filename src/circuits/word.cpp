#include "circuits/word.h"

namespace matcha::circuits {

EncWord encrypt_word(const SecretKeyset& sk, uint64_t value, int width, Rng& rng) {
  EncWord w;
  for (int i = 0; i < width; ++i) {
    w.bits.push_back(sk.encrypt_bit(static_cast<int>((value >> i) & 1), rng));
  }
  return w;
}

uint64_t decrypt_word(const SecretKeyset& sk, const EncWord& w) {
  uint64_t v = 0;
  for (int i = 0; i < w.width(); ++i) {
    v |= static_cast<uint64_t>(sk.decrypt_bit(w.bits[i])) << i;
  }
  return v;
}

} // namespace matcha::circuits
