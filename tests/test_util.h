// Shared, lazily-built key material for the test suite. Key generation is
// the dominant test cost; every test file shares these singletons.
#pragma once

#include <memory>
#include <vector>

#include "common/simd_dispatch.h"
#include "fft/double_fft.h"
#include "fft/lift_fft.h"
#include "tfhe/keyset.h"

namespace matcha::test {

struct SharedKeys {
  TfheParams params = TfheParams::test_small();
  Rng rng{0xC0FFEE};
  SecretKeyset sk = SecretKeyset::generate(params, rng);
  CloudKeyset ck1 = make_cloud_keyset(sk, 1, rng);
  CloudKeyset ck2 = make_cloud_keyset(sk, 2, rng);
  CloudKeyset ck3 = make_cloud_keyset(sk, 3, rng);
  DoubleFftEngine deng{params.ring.n_ring};
  LiftFftEngine leng{params.ring.n_ring, 40};
};

inline const SharedKeys& shared_keys() {
  static const SharedKeys keys;
  return keys;
}

/// The SIMD levels this host can actually run: scalar always, plus every
/// vector tier the CPU can execute (an AVX-512 host tests avx2 AND avx512).
inline std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_available(lvl)) levels.push_back(lvl);
  }
  return levels;
}

/// A fresh deterministic RNG per test (seeded by name hash would be overkill;
/// fixed seeds keep failures reproducible).
inline Rng test_rng(uint64_t seed = 42) { return Rng(seed); }

/// KeySwitch(c) as a batch of one through key_switch_batch.
inline LweSample key_switch_one(const KeySwitchKey& ks, const LweSample& c) {
  KeySwitchWorkspace ws;
  LweSample out;
  const LweSample* in = &c;
  LweSample* o = &out;
  key_switch_batch(ks, &in, &o, 1, ws);
  return out;
}

/// One full gate bootstrap (rotation, extraction, key switch) of `x`, as a
/// batch of one through bootstrap_batch.
template <class Engine>
LweSample gate_bootstrap(const Engine& eng, const DeviceBootstrapKey<Engine>& bk,
                         const KeySwitchKey& ks, Torus32 mu, const LweSample& x,
                         BootstrapWorkspace<Engine>& ws) {
  KeySwitchWorkspace ks_ws;
  LweSample out;
  const LweSample* in = &x;
  LweSample* o = &out;
  bootstrap_batch(eng, bk, ks, mu, &in, &o, 1, ws, ks_ws);
  return out;
}

/// The same gate bootstrap through the sequential classic-CMux reference
/// (m = 1 keys only).
template <class Engine>
LweSample classic_gate_bootstrap(const Engine& eng,
                                 const DeviceBootstrapKey<Engine>& bk,
                                 const KeySwitchKey& ks, Torus32 mu,
                                 const LweSample& x,
                                 BootstrapWorkspace<Engine>& ws) {
  LweSample u;
  classic_bootstrap_wo_keyswitch_into(eng, bk, mu, x, ws, u);
  return key_switch_one(ks, u);
}

} // namespace matcha::test
