// Gate bootstrapping (paper Algorithm 1): blind rotation of a test vector,
// sample extraction, and key switching. Every bootstrapping gate kind lowers
// through ONE batched primitive, rotate_extract_batch: a group-major blind
// rotation of B samples on MATCHA's bundle datapath (the spectral
// bootstrapping-key bundle per key group, any m >= 1), read out at K ring
// offsets, without the key switch. The gate bootstrap is that primitive with
// the cached constant test vector and K = 1; a sequential caller is a batch
// of one. The TFHE library's CMux chain is kept only as a sequential
// reference (the Fig. 1 CPU baseline; m == 1 keys, not the SIMD engine).
#pragma once

#include <stdexcept>

#include "bku/bundle.h"
#include "bku/unrolled_key.h"
#include "tfhe/keyswitch.h"
#include "tfhe/tgsw.h"

namespace matcha {

template <class Engine>
struct BootstrapWorkspace {
  ExternalProductWorkspace<Engine> ep;
  TGswSpectral<Engine> bundle;
  TLweSample tmp; ///< classic-CMux step scratch: (X^{a_i} - 1) * ACC
  TorusPolynomial testv, testv_rot;
  std::vector<int32_t> exponents;

  // Gate test-vector caching. `testv` is workspace-owned: the gate bootstrap
  // fills it with the amplitude mu only when mu changed since the last fill
  // (testv_mu keys the fill), and testv_spec carries the matching
  // spectral-synthesis constants for the fused bundle path. Callers must not
  // scribble on ws.testv directly -- pass their own polynomial (the
  // functional-bootstrap path) instead.
  bool testv_mu_valid = false;
  Torus32 testv_mu = 0;
  GateTestvSpectra testv_spec;

  // Batched-blind-rotation arena (grow-only, so steady-state batches are
  // allocation-free): per-sample accumulators and rotation states, plus the
  // N-LWE staging bootstrap_batch extracts into before its keyswitch flush.
  std::vector<TLweSample> batch_acc;
  std::vector<BlindRotateState> batch_st;
  std::vector<LweSample> batch_u;
  std::vector<LweSample*> batch_u_ptr;

  BootstrapWorkspace(const Engine& eng, const GadgetParams& g)
      : ep(eng, g),
        bundle(make_bundle_storage(eng, g)),
        tmp(eng.ring_n()),
        testv(eng.ring_n()),
        testv_rot(eng.ring_n()) {}

  void ensure_batch(int n_ring, int batch) {
    if (static_cast<int>(batch_acc.size()) < batch) {
      batch_acc.resize(static_cast<size_t>(batch), TLweSample(n_ring));
    }
    if (static_cast<int>(batch_st.size()) < batch) {
      batch_st.resize(static_cast<size_t>(batch));
    }
  }
};

/// Refill ws.testv with the constant gate test vector only when `mu` changed
/// since the last fill, and keep the fused path's spectral constants in sync.
template <class Engine>
void set_gate_testv(BootstrapWorkspace<Engine>& ws, Torus32 mu,
                    const GadgetParams& gadget) {
  if (ws.testv_mu_valid && ws.testv_mu == mu) return;
  for (auto& c : ws.testv.coeffs) c = mu;
  ws.testv_mu = mu;
  ws.testv_mu_valid = true;
  set_gate_testv_digits(ws.testv_spec, mu, gadget);
}

/// ACC = (0, testv * X^{-barb}); resets the per-sample rotation state.
template <class Engine>
void blind_rotate_init(const Engine& eng, const LweSample& x,
                       const TorusPolynomial& testv,
                       TorusPolynomial& testv_rot, TLweSample& acc,
                       BlindRotateState& st) {
  const int n_ring = eng.ring_n();
  st.barb = mod_switch_to_2n(x.b, n_ring);
  st.pristine = true;
  multiply_by_xpower(testv_rot, testv, 2 * n_ring - st.barb);
  acc.a.clear();
  acc.b = testv_rot;
}

/// The fused-path test-vector cache, iff the rotation starts from the
/// workspace's own constant gate test vector (and the cached constants
/// agree with its last fill).
template <class Engine>
GateTestvSpectra* gate_testv_cache(BootstrapWorkspace<Engine>& ws,
                                   const TorusPolynomial& testv) {
  const bool usable = &testv == &ws.testv && ws.testv_mu_valid &&
                      ws.testv_spec.mu_valid &&
                      ws.testv_spec.mu == ws.testv_mu;
  return usable ? &ws.testv_spec : nullptr;
}

/// Batched blind rotation, group-major: ACC_b <- X^{-b + sum a_i s_i} *
/// (0, testv) for every sample b, landing in ws.batch_acc[0..B). The outer
/// loop walks the n/m key groups, the inner loop walks samples, so each
/// group's spectral TGSW members stream from DRAM once per batch and stay
/// cache-hot for all B bundle steps -- the key_switch_batch amortization
/// applied to the bootstrapping key. Bit-identity contract: sample b runs
/// exactly the same step sequence (blind_rotate_init + one
/// bundle_rotate_step per group on workspace scratch that every step fully
/// overwrites) whatever the batch size, so a batch of B is bit-identical to
/// B batches of one.
template <class Engine>
void blind_rotate_batch(const Engine& eng,
                        const DeviceBootstrapKey<Engine>& key,
                        const LweSample* const* xs, int batch,
                        const TorusPolynomial& testv,
                        BootstrapWorkspace<Engine>& ws) {
  const int n_ring = eng.ring_n();
  ws.ensure_batch(n_ring, batch);
  for (int b = 0; b < batch; ++b) {
    blind_rotate_init(eng, *xs[b], testv, ws.testv_rot,
                      ws.batch_acc[static_cast<size_t>(b)],
                      ws.batch_st[static_cast<size_t>(b)]);
  }
  GateTestvSpectra* tc = gate_testv_cache(ws, testv);
  for (int g = 0; g < key.num_groups(); ++g) {
    const int mg = key.members(g);
    for (int b = 0; b < batch; ++b) {
      group_subset_exponents(xs[b]->a.data() + g * key.unroll_m, mg, n_ring,
                             ws.exponents);
      bundle_rotate_step(eng, key, g, ws.exponents,
                         ws.batch_acc[static_cast<size_t>(b)], ws.bundle,
                         ws.ep, ws.batch_st[static_cast<size_t>(b)], tc);
    }
  }
}

/// The bootstrap primitive under every gate lowering: one group-major blind
/// rotation of B samples against `testv`, then n_out sample extractions per
/// sample and no key switch. Output j of sample b is an N-LWE sample under
/// the extracted ring key and lands in outs[j * batch + b]; offsets[j] is the
/// ring coefficient it reads (0 for a gate or single-output LUT; slot_shift *
/// N / slots for a multi-output LUT's extra outputs, see tfhe/lut.h).
/// Extraction starts after every rotation has consumed its input, so outs
/// may alias xs.
template <class Engine>
void rotate_extract_batch(const Engine& eng,
                          const DeviceBootstrapKey<Engine>& key,
                          const TorusPolynomial& testv,
                          const LweSample* const* xs, LweSample* const* outs,
                          const int* offsets, int n_out, int batch,
                          BootstrapWorkspace<Engine>& ws) {
  blind_rotate_batch(eng, key, xs, batch, testv, ws);
  for (int b = 0; b < batch; ++b) {
    const TLweSample& acc = ws.batch_acc[static_cast<size_t>(b)];
    for (int j = 0; j < n_out; ++j) {
      sample_extract_at(acc, offsets[j], *outs[j * batch + b]);
    }
  }
}

/// Batched gate bootstrap without the key switch: rotate_extract_batch with
/// the cached constant test vector (+-mu by sign(phase(x))) and one output
/// at offset 0. outs[b] may alias xs[b].
template <class Engine>
void bootstrap_wo_keyswitch_batch(const Engine& eng,
                                  const DeviceBootstrapKey<Engine>& key,
                                  Torus32 mu, const LweSample* const* xs,
                                  LweSample* const* outs, int batch,
                                  BootstrapWorkspace<Engine>& ws) {
  set_gate_testv(ws, mu, key.gadget);
  const int offset = 0;
  rotate_extract_batch(eng, key, ws.testv, xs, outs, &offset, 1, batch, ws);
}

/// Batched full gate bootstrap: the gate bootstrap above into the
/// workspace's N-LWE staging, then ONE batched key switch back to n-LWE (the
/// keyswitch key streams once for the whole batch). outs[b] may alias xs[b].
template <class Engine>
void bootstrap_batch(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                     const KeySwitchKey& ks, Torus32 mu,
                     const LweSample* const* xs, LweSample* const* outs,
                     int batch, BootstrapWorkspace<Engine>& ws,
                     KeySwitchWorkspace& ks_ws) {
  const size_t nb = static_cast<size_t>(batch);
  if (ws.batch_u.size() < nb) ws.batch_u.resize(nb);
  ws.batch_u_ptr.resize(nb);
  for (size_t i = 0; i < nb; ++i) ws.batch_u_ptr[i] = &ws.batch_u[i];
  bootstrap_wo_keyswitch_batch(eng, key, mu, xs, ws.batch_u_ptr.data(), batch,
                               ws);
  key_switch_batch(ks, ws.batch_u_ptr.data(), outs, batch, ks_ws);
}

/// The TFHE library's gate bootstrap without the key switch, kept as the
/// sequential CPU reference (Fig. 1, Table 1): one CMux per secret bit,
/// ACC += BK_i (x) ((X^{a_i} - 1) ACC), skipping a_i == 0 so the identity
/// path stays exact (no decomposition error). It needs one spectral TGSW per
/// secret bit (an m == 1 key, not on the SIMD engine) and throws
/// std::invalid_argument otherwise. out may alias x.
template <class Engine>
void classic_bootstrap_wo_keyswitch_into(const Engine& eng,
                                         const DeviceBootstrapKey<Engine>& key,
                                         Torus32 mu, const LweSample& x,
                                         BootstrapWorkspace<Engine>& ws,
                                         LweSample& out) {
  if (key.groups.size() != static_cast<size_t>(key.n_lwe)) {
    throw std::invalid_argument(
        "classic CMux bootstrap needs one spectral TGSW per secret bit");
  }
  const int n_ring = eng.ring_n();
  set_gate_testv(ws, mu, key.gadget);
  ws.ensure_batch(n_ring, 1);
  TLweSample& acc = ws.batch_acc.front();
  BlindRotateState& st = ws.batch_st.front();
  blind_rotate_init(eng, x, ws.testv, ws.testv_rot, acc, st);
  for (int i = 0; i < key.n_lwe; ++i) {
    const int barai = mod_switch_to_2n(x.a[i], n_ring);
    if (barai == 0) continue;
    multiply_by_xpower_minus_one(ws.tmp.a, acc.a, barai);
    multiply_by_xpower_minus_one(ws.tmp.b, acc.b, barai);
    // On the first active step acc.a == 0, so tmp.a = (X^c - 1) * 0 == 0 and
    // the external product's a-half is skipped.
    external_product(eng, key.gadget, key.groups[i][0], ws.tmp, ws.ep,
                     /*a_is_zero=*/st.pristine);
    acc += ws.tmp;
    st.pristine = false;
  }
  sample_extract_into(acc, out);
}

/// The SIMD engine's classic chain: its key is the bundle arena alone, and
/// the fused bundle step is its only external product, so it always throws.
inline void classic_bootstrap_wo_keyswitch_into(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&, Torus32,
    const LweSample&, BootstrapWorkspace<SimdFftEngine>&, LweSample&) {
  throw std::invalid_argument(
      "classic CMux bootstrap needs one spectral TGSW per secret bit");
}

} // namespace matcha
