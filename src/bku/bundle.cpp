#include "bku/bundle.h"

#include <algorithm>
#include <cassert>

#include "fft/simd_fft.h"

namespace matcha {

void group_subset_exponents(const Torus32* a_group, int mg, int n_ring,
                            std::vector<int32_t>& out) {
  const uint32_t count = 1u << mg;
  out.resize(count - 1);
  // subset_sum[mask] built incrementally: strip the lowest bit.
  std::vector<Torus32> sums(count, 0);
  for (uint32_t mask = 1; mask < count; ++mask) {
    const uint32_t low = mask & (~mask + 1);
    const int j = __builtin_ctz(mask);
    sums[mask] = sums[mask ^ low] + a_group[j];
    out[mask - 1] = mod_switch_to_2n(sums[mask], n_ring);
  }
}

void set_gate_testv_digits(GateTestvSpectra& tc, Torus32 mu,
                           const GadgetParams& g) {
  tc.mu = mu;
  tc.dplus.resize(static_cast<size_t>(g.l));
  tc.beta.resize(static_cast<size_t>(g.l));
  int32_t dp[32], dm[32]; // l * bg_bits <= 32 bounds l
  decompose_coefficient(g, mu, dp);
  decompose_coefficient(g, static_cast<Torus32>(0u - mu), dm);
  for (int j = 0; j < g.l; ++j) {
    tc.dplus[static_cast<size_t>(j)] = static_cast<double>(dp[j]);
    // Exact in double: dp - dm is an int, so beta is a half-integer.
    tc.beta[static_cast<size_t>(j)] = static_cast<double>(dp[j] - dm[j]) * 0.5;
  }
  tc.mu_valid = true;
}

namespace {

/// Populate ws.spec planes [l, 2l) with the digit spectra of the pristine
/// accumulator's b-part testv * X^{-barb} by pointwise synthesis from the
/// cached F(ones): spec_j = dplus_j * F(ones) + beta_j * R, where
/// R = (X^{-barb} - 1) (*) F(ones) is one rot_scale_add per sample.
/// The one-time F(ones) transform goes through the kernel directly (not
/// forward_raw) so it lands in no counter: it is workspace-lifetime setup,
/// and counting it would make per-thread counter totals depend on how a
/// batch was sharded across workers.
void synth_testv_spectra(const SimdFftEngine& eng, GateTestvSpectra& tc,
                         int barb, ExternalProductWorkspace<SimdFftEngine>& ws) {
  const int m = eng.spectral_size();
  const int l = ws.l;
  const SpectralKernels& k = eng.kernels();
  const NegacyclicPlan& plan = eng.plan();
  if (!tc.ones_valid || static_cast<int>(tc.ones.size()) != 2 * m) {
    tc.ones.assign(static_cast<size_t>(2 * m), 0.0);
    tc.rot.assign(static_cast<size_t>(2 * m), 0.0);
    // Borrow a b-digit plane (about to be overwritten anyway) for the
    // all-ones integer polynomial; no allocation on any path.
    int32_t* one_poly = ws.digit_plane(l);
    std::fill(one_poly, one_poly + ws.n, 1);
    k.forward(plan, one_poly, tc.ones.data(), tc.ones.data() + m);
    tc.ones_valid = true;
  }
  std::fill(tc.rot.begin(), tc.rot.end(), 0.0);
  // acc.b = testv * X^{-barb}; rot_scale_add applies (X^{-c} - 1) for c
  // positive, so the exponent is +barb here.
  k.rot_scale_add(plan, tc.rot.data(), tc.rot.data() + m, tc.ones.data(),
                  tc.ones.data() + m, static_cast<int64_t>(barb));
  for (int j = 0; j < l; ++j) {
    double* dr = ws.spec_re(l + j);
    double* di = ws.spec_im(l + j);
    std::fill(dr, dr + m, 0.0);
    std::fill(di, di + m, 0.0);
    k.scale_add(m, dr, di, tc.ones.data(), tc.ones.data() + m,
                tc.dplus[static_cast<size_t>(j)]);
    k.scale_add(m, dr, di, tc.rot.data(), tc.rot.data() + m,
                tc.beta[static_cast<size_t>(j)]);
  }
}

} // namespace

void bundle_rotate_step(const SimdFftEngine& eng,
                        const DeviceBootstrapKey<SimdFftEngine>& key, int g,
                        const std::vector<int32_t>& exponents, TLweSample& acc,
                        TGswSpectral<SimdFftEngine>& /*bundle*/,
                        ExternalProductWorkspace<SimdFftEngine>& ws,
                        BlindRotateState& st, GateTestvSpectra* tc) {
  bool any = false;
  for (const int32_t c : exponents) any = any || (c != 0);
  if (!any) return; // identity bundle: ACC unchanged, still pristine

  const GadgetParams& gd = key.gadget;
  const int l = gd.l;
  const int rows = 2 * l;
  const int m = eng.spectral_size();
  assert(ws.l == l && ws.n == eng.ring_n() && ws.m == m);
  const SpectralKernels& k = eng.kernels();
  const NegacyclicPlan& plan = eng.plan();
  assert(key.soa_block_doubles == static_cast<size_t>(rows) * 4 * m);

  int32_t* planes[64];
  assert(rows <= 64);
  for (int r = 0; r < rows; ++r) planes[r] = ws.digit_plane(r);

  // Digit spectra of ACC. On the pristine step acc.a == 0, so its digits
  // and spectra vanish (zero_fft_skips), and when the initial test vector
  // is the cached constant, the b-digit spectra synthesize from F(ones)
  // instead of running l forward FFTs (testv_fft_reuses).
  const bool skip_a = st.pristine;
  const int r0 = skip_a ? l : 0;
  if (!skip_a) {
    k.decompose(l, gd.bg_bits, gd.rounding_offset(), eng.ring_n(),
                acc.a.coeffs.data(), planes);
    for (int r = 0; r < l; ++r) {
      eng.forward_raw(ws.digit_plane(r), ws.spec_re(r), ws.spec_im(r));
    }
  } else {
#ifndef NDEBUG
    for (const Torus32 cc : acc.a.coeffs) assert(cc == 0);
#endif
    eng.counters().zero_fft_skips += l;
  }
  if (st.pristine && tc != nullptr) {
    assert(tc->mu_valid);
    synth_testv_spectra(eng, *tc, st.barb, ws);
    eng.counters().testv_fft_reuses += l;
  } else {
    k.decompose(l, gd.bg_bits, gd.rounding_offset(), eng.ring_n(),
                acc.b.coeffs.data(), planes + l);
    for (int r = l; r < rows; ++r) {
      eng.forward_raw(ws.digit_plane(r), ws.spec_re(r), ws.spec_im(r));
    }
  }

  ws.acc_a.clear();
  ws.acc_b.clear();
  // Gadget identity H: row j of column a (resp. l+j of column b) carries the
  // real constant Bg^{-(j+1)}, whose spectrum is flat -- its MAC against the
  // digit spectrum is a real scale-accumulate, no bundle row needed. Same
  // int32 lift as the reference engines' add_constant, so the fused and
  // materialized paths agree on the constant's value.
  for (int j = 0; j < l; ++j) {
    const Torus32 gj = 1u << (32 - (j + 1) * gd.bg_bits);
    const double gjd = static_cast<double>(static_cast<int32_t>(gj));
    if (!skip_a) {
      k.scale_add(m, ws.acc_a.re.data(), ws.acc_a.im.data(), ws.spec_re(j),
                  ws.spec_im(j), gjd);
    }
    k.scale_add(m, ws.acc_b.re.data(), ws.acc_b.im.data(), ws.spec_re(l + j),
                ws.spec_im(l + j), gjd);
  }
  // Subset terms, fused: each subset's contribution is
  // f_S (*) sum_r d_r (*) BK_{S,r} per column (associativity of the
  // pointwise product), so the 2l digit rows run one gather-free row-blocked
  // MAC into the sub-accumulators sub_a/sub_b, and the rotation factor
  // f_S = X^{-c_S} - 1 (rot_factor: the only gathers in the step) is applied
  // by ONE further mac2 per subset -- versus 2l x 2 rotations per subset in
  // the materialized build_bundle path, whose bundle buffer is also never
  // written or re-read here. Blind rotation multiplies ACC by X^{+c}; the
  // factor applies (X^{-c} - 1), hence the negated exponent (same as
  // build_bundle).
  for (size_t idx = 0; idx < exponents.size(); ++idx) {
    const int32_t c = exponents[idx];
    if (c == 0) continue; // (X^0 - 1) = 0
    k.rot_factor(plan, ws.rotf.data(), ws.rotf.data() + m,
                 -static_cast<int64_t>(c));
    // The sub-accumulator planes stay in registers across all rows
    // (mac2_rows overwrites them, so no clear either).
    k.mac2_rows(m, r0, rows, ws.spec.data(), key.soa_block(g, idx),
                ws.sub_a.re.data(), ws.sub_a.im.data(), ws.sub_b.re.data(),
                ws.sub_b.im.data());
    k.mac2(m, ws.rotf.data(), ws.rotf.data() + m, ws.sub_a.re.data(),
           ws.sub_a.im.data(), ws.sub_b.re.data(), ws.sub_b.im.data(),
           ws.acc_a.re.data(), ws.acc_a.im.data(), ws.acc_b.re.data(),
           ws.acc_b.im.data());
  }
  eng.inverse_raw(ws.acc_a.re.data(), ws.acc_a.im.data(), acc.a.coeffs.data());
  eng.inverse_raw(ws.acc_b.re.data(), ws.acc_b.im.data(), acc.b.coeffs.data());
  st.pristine = false;
}

} // namespace matcha
