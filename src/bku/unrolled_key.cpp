#include "bku/unrolled_key.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "fft/double_fft.h"
#include "fft/simd_fft.h"

namespace matcha {

int UnrolledBootstrapKey::members(int g) const {
  const int start = g * unroll_m;
  const int end = start + unroll_m;
  return end <= n_lwe ? unroll_m : n_lwe - start;
}

int UnrolledBootstrapKey::total_tgsw() const {
  int total = 0;
  for (const auto& g : groups) total += static_cast<int>(g.size());
  return total;
}

void check_key_ring(const UnrolledBootstrapKey& key, int engine_ring_n) {
  if (key.ring.n_ring != engine_ring_n) {
    throw std::invalid_argument(
        "load_bootstrap_key: key ring dimension " +
        std::to_string(key.ring.n_ring) + " != engine ring dimension " +
        std::to_string(engine_ring_n));
  }
}

UnrolledBootstrapKey make_unrolled_bootstrap_key(const LweKey& lwe_key,
                                                 const TLweKey& ring_key,
                                                 const GadgetParams& gadget,
                                                 int unroll_m, Rng& rng) {
  assert(unroll_m >= 1);
  UnrolledBootstrapKey key;
  key.unroll_m = unroll_m;
  key.n_lwe = lwe_key.params.n;
  key.ring = ring_key.params;
  key.gadget = gadget;

  // Client-side encryption always uses the exact double engine.
  DoubleFftEngine eng(ring_key.params.n_ring);
  SpectralD key_spec;
  eng.to_spectral_int(ring_key.s, key_spec);

  const int num_groups = (key.n_lwe + unroll_m - 1) / unroll_m;
  key.groups.resize(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    const int start = g * unroll_m;
    const int mg = key.members(g);
    key.groups[g].reserve((1u << mg) - 1);
    for (uint32_t mask = 1; mask < (1u << mg); ++mask) {
      int32_t ind = 1;
      for (int j = 0; j < mg; ++j) {
        const int bit = lwe_key.s[start + j];
        ind &= (mask >> j) & 1 ? bit : 1 - bit;
      }
      key.groups[g].push_back(tgsw_encrypt(eng, ring_key, key_spec, gadget,
                                           ind, ring_key.params.sigma, rng));
    }
  }
  return key;
}

template <>
DeviceBootstrapKey<SimdFftEngine> load_bootstrap_key<SimdFftEngine>(
    const SimdFftEngine& eng, const UnrolledBootstrapKey& key) {
  check_key_ring(key, eng.ring_n());
  DeviceBootstrapKey<SimdFftEngine> dev;
  dev.unroll_m = key.unroll_m;
  dev.n_lwe = key.n_lwe;
  dev.n_ring = key.ring.n_ring;
  dev.gadget = key.gadget;
  assert(key.num_groups() == dev.num_groups());
  const size_t m = static_cast<size_t>(eng.spectral_size());
  const int rows = 2 * key.gadget.l;
  dev.soa_block_doubles = static_cast<size_t>(rows) * 4 * m;
  dev.soa.resize(static_cast<size_t>(key.total_tgsw()) * dev.soa_block_doubles);
  // Blocks in (group, member) order, the order soa_block addresses. Each row
  // goes through the same forward kernel (and counter) as to_spectral_torus.
  double* row = dev.soa.data();
  for (int g = 0; g < key.num_groups(); ++g) {
    const auto& group = key.groups[static_cast<size_t>(g)];
    assert(group.size() == (size_t{1} << key.members(g)) - 1);
    for (const TGswSample& tgsw : group) {
      for (int r = 0; r < rows; ++r, row += 4 * m) {
        const TLweSample& src = tgsw.rows[static_cast<size_t>(r)];
        eng.forward_raw(reinterpret_cast<const int32_t*>(src.a.coeffs.data()),
                        row, row + m);
        eng.forward_raw(reinterpret_cast<const int32_t*>(src.b.coeffs.data()),
                        row + 2 * m, row + 3 * m);
      }
    }
  }
  return dev;
}

} // namespace matcha
