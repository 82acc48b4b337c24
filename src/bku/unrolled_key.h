// Bootstrapping-key unrolling (BKU), generalized to any unroll factor m >= 1
// (paper section 4.2; Bourse et al. and Zhou et al. for m = 2).
//
// The LWE secret bits are partitioned into groups of m. For each group the
// key stores, for every nonempty subset S of the group's indices, a TGSW
// encryption of the 0/1 indicator
//     ind_S = prod_{i in S} s_i * prod_{i not in S} (1 - s_i),
// i.e. "the group's secret bits match pattern S exactly". Since the
// indicators sum to 1 over all 2^m patterns,
//     X^{-sum a_i s_i} = 1 + sum_{S != 0} (X^{-c_S} - 1) * ind_S,
// which is the bootstrapping key bundle of Fig. 5 generalized; a blind-rotate
// iteration consumes one whole group with a single external product. The key
// grows as (2^m - 1) TGSW per group -- the exponential Table 3 calls out.
//
// m = 1 degenerates to the standard TFHE bootstrapping key (one TGSW per
// secret bit), so every unroll factor shares one code path.
#pragma once

#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "tfhe/tgsw.h"

namespace matcha {

/// Coefficient-domain ("cloud") unrolled bootstrapping key.
struct UnrolledBootstrapKey {
  int unroll_m = 1;
  int n_lwe = 0;
  RingParams ring;
  GadgetParams gadget;
  /// groups[g][mask-1] encrypts ind_S for S = bit pattern `mask` over the
  /// group's members (mask in [1, 2^{members(g)})).
  std::vector<std::vector<TGswSample>> groups;

  int num_groups() const { return static_cast<int>(groups.size()); }
  /// Number of secret bits in group g (== unroll_m except a short tail).
  int members(int g) const;
  /// Total TGSW samples stored (the BK-size blowup of Table 3).
  int total_tgsw() const;
};

/// Generate the unrolled key for `lwe_key` under `ring_key`. Encryption runs
/// client-side with the exact double-precision engine.
UnrolledBootstrapKey make_unrolled_bootstrap_key(const LweKey& lwe_key,
                                                 const TLweKey& ring_key,
                                                 const GadgetParams& gadget,
                                                 int unroll_m, Rng& rng);

/// Device-resident (spectral) form, templated on the evaluation engine. Each
/// engine fills exactly one layout: per-TGSW spectra in `groups` (DoubleFft/
/// LiftFftEngine, read by build_bundle) or the arena `soa` (SimdFftEngine).
template <class Engine>
struct DeviceBootstrapKey {
  int unroll_m = 1;
  int n_lwe = 0;
  int n_ring = 0;
  GadgetParams gadget;
  std::vector<std::vector<TGswSpectral<Engine>>> groups;

  /// Group-major streaming arena (SimdFftEngine only; empty otherwise): each
  /// group member's 2l TGSW rows form ONE contiguous block of row-stride 4m,
  /// each row laid out as the four m-double planes
  /// [col0.re | col0.im | col1.re | col1.im]. The fused bundle path's
  /// row-blocked MAC (SpectralKernels::mac2_rows) walks a whole subset with
  /// two base pointers and constant strides, and a group's batch-resident
  /// working set is exactly its members' blocks back to back.
  AlignedVector<double> soa;
  size_t soa_block_doubles = 0; ///< 2l * 4 * m per member block

  /// Block of member `idx` of group g (every group holds 2^m - 1 members
  /// except possibly the last).
  const double* soa_block(int g, size_t idx) const {
    const size_t per_group = (size_t{1} << unroll_m) - 1;
    return soa.data() + (g * per_group + idx) * soa_block_doubles;
  }

  int num_groups() const { return (n_lwe + unroll_m - 1) / unroll_m; }
  int members(int g) const {
    const int start = g * unroll_m;
    const int end = start + unroll_m;
    return (end <= n_lwe ? unroll_m : n_lwe - start);
  }
};

/// Throws std::invalid_argument unless `key`'s ring dimension is
/// `engine_ring_n`: a loader transforms engine_ring_n coefficients of every
/// key row, so any other ring would read past the rows or leave them short.
void check_key_ring(const UnrolledBootstrapKey& key, int engine_ring_n);

template <class Engine>
DeviceBootstrapKey<Engine> load_bootstrap_key(const Engine& eng,
                                              const UnrolledBootstrapKey& key) {
  check_key_ring(key, eng.ring_n());
  DeviceBootstrapKey<Engine> dev;
  dev.unroll_m = key.unroll_m;
  dev.n_lwe = key.n_lwe;
  dev.n_ring = key.ring.n_ring;
  dev.gadget = key.gadget;
  dev.groups.resize(key.groups.size());
  for (size_t g = 0; g < key.groups.size(); ++g) {
    dev.groups[g].reserve(key.groups[g].size());
    for (const auto& tgsw : key.groups[g]) {
      dev.groups[g].push_back(tgsw_to_spectral(eng, tgsw));
    }
  }
  return dev;
}

class SimdFftEngine;

/// The SIMD load (bku/unrolled_key.cpp) forward-transforms each cloud TGSW
/// row straight into its `soa` block; `groups` stays empty.
template <>
DeviceBootstrapKey<SimdFftEngine> load_bootstrap_key<SimdFftEngine>(
    const SimdFftEngine& eng, const UnrolledBootstrapKey& key);

} // namespace matcha
