// Bootstrapping-key-bundle construction (paper Fig. 5 / Fig. 6 step 1).
//
// For one group of m secret bits with mod-switched mask values a_i, the
// bundle is the spectral-domain TGSW
//     BKB = H + sum_{S != 0} (X^{c_S} - 1) * BK_S,
// where c_S = ModSwitch(sum_{i in S} a_i) is rounded ONCE per subset -- this
// is why the rounding noise scales as RO/m in Table 3 (one rounding per
// group on the active pattern instead of m independent roundings).
//
// In MATCHA this is the TGSW cluster's job: each TGSW scale unit computes one
// (X^{c_S} - 1) * BK_S term with plain integer multipliers, and the adder
// tree sums the terms. An EP core then computes ACC <- BKB (x) ACC.
#pragma once

#include <cstdint>
#include <vector>

#include "bku/unrolled_key.h"
#include "common/aligned.h"
#include "fft/simd_fft.h"
#include "math/decompose.h"

namespace matcha {

/// Per-sample blind-rotation progress, shared by the batched bundle driver
/// and the classic-CMux reference (tfhe/bootstrap.h). `pristine` stays true
/// until the first external product actually executes, i.e. while ACC is
/// still exactly the trivial (0, testv * X^{-barb}); that is what licenses
/// the first-group fast paths (zero a-digit spectra, cached test-vector
/// spectra).
struct BlindRotateState {
  int32_t barb = 0;     ///< ModSwitch_{2N}(x.b) for this sample
  bool pristine = true; ///< no external product has touched ACC yet
};

/// Spectral cache of the constant gate test vector (the ROADMAP residual
/// "spectral-domain caching of the rotated test vector"). For the gate
/// bootstrap, testv is the all-mu polynomial, so the rotated accumulator
/// b-part testv * X^{-barb} has coefficients +-mu and its gadget digit j
/// takes one of two values per coefficient: d+ = digit_j(mu) where the sign
/// survived, d- = digit_j(-mu) where the negacyclic wrap flipped it. With
/// alpha_j = d+ and beta_j = (d+ - d-)/2 (exact half-integers in double),
///     DigitPoly_j = d+ * ones + beta_j * ((X^{-barb} - 1) * ones),
/// so every b-digit spectrum synthesizes pointwise from ONE cached forward
/// transform F(ones) plus one rot_scale_add per sample -- no per-group digit
/// FFTs on the pristine step. Only the fused SIMD bundle path consumes this
/// (the integer lift engine's exactness contract does not admit the
/// half-integer beta); generic engines still get the zero-a skip.
struct GateTestvSpectra {
  bool mu_valid = false; ///< dplus/beta below match `mu`
  Torus32 mu = 0;
  std::vector<double> dplus, beta; ///< per digit j in [0, l)

  bool ones_valid = false;    ///< `ones` holds F(all-ones) for this plan
  AlignedVector<double> ones; ///< re[m] then im[m] of F(ones)
  AlignedVector<double> rot;  ///< scratch: (X^{-barb} - 1) (*) F(ones)
};

/// Fill the per-digit constants of `tc` for gate amplitude `mu` (engine
/// independent; the spectral planes are populated lazily by the fused path).
void set_gate_testv_digits(GateTestvSpectra& tc, Torus32 mu,
                           const GadgetParams& g);

/// Subset exponents for one group: out[mask-1] = ModSwitch_{2N}(sum_{i in
/// mask} a_i), mask in [1, 2^mg). Single rounding per subset.
void group_subset_exponents(const Torus32* a_group, int mg, int n_ring,
                            std::vector<int32_t>& out);

/// Build the bundle for one group from its spectral TGSWs (group[mask-1]
/// encrypts ind_S for subset `mask`) given the subset exponents. `bundle`
/// must be pre-sized (2l rows x 2 cols of engine spectra). Returns false when
/// all exponents are zero (bundle would be the identity H; caller can skip
/// the external product entirely, as the TFHE library does for barai == 0).
template <class Engine>
bool build_bundle(const Engine& eng, const GadgetParams& gadget,
                  const std::vector<TGswSpectral<Engine>>& group,
                  const std::vector<int32_t>& exponents,
                  TGswSpectral<Engine>& bundle) {
  const int rows = 2 * gadget.l;
  bool any = false;
  for (int r = 0; r < rows; ++r) {
    bundle.rows[r][0].clear();
    bundle.rows[r][1].clear();
  }
  for (size_t idx = 0; idx < exponents.size(); ++idx) {
    const int32_t c = exponents[idx];
    if (c == 0) continue; // (X^0 - 1) = 0
    any = true;
    const auto& bk = group[idx];
    for (int r = 0; r < rows; ++r) {
      // Blind rotation multiplies ACC by X^{+c}; rot_scale_add applies
      // (X^{-c} - 1), hence the negated exponent.
      eng.rot_scale_add(bundle.rows[r][0], bk.rows[r][0], -static_cast<int64_t>(c));
      eng.rot_scale_add(bundle.rows[r][1], bk.rows[r][1], -static_cast<int64_t>(c));
    }
  }
  if (!any) return false;
  // Add the gadget identity H (constant polynomials Bg^{-(j+1)}).
  for (int j = 0; j < gadget.l; ++j) {
    const Torus32 gj = 1u << (32 - (j + 1) * gadget.bg_bits);
    eng.add_constant(bundle.rows[j][0], gj);
    eng.add_constant(bundle.rows[gadget.l + j][1], gj);
  }
  return true;
}

/// One bundle-mode blind-rotation group step: ACC <- BKB_g (x) ACC, skipping
/// the step entirely when every subset exponent is zero (BKB would be the
/// identity H). This is THE per-sample step -- the batched blind rotation
/// calls it once per (group, sample), which is what makes every batch size
/// and interleaving bit-identical. Generic engines materialize the bundle
/// (build_bundle + external_product, with the pristine zero-a skip); the
/// SimdFftEngine overload below fuses the subset rotations into the
/// external-product MAC and never materializes the bundle. `tc` may be null;
/// when set it must describe ACC's initial constant test vector.
template <class Engine>
void bundle_rotate_step(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                        int g, const std::vector<int32_t>& exponents,
                        TLweSample& acc, TGswSpectral<Engine>& bundle,
                        ExternalProductWorkspace<Engine>& ws,
                        BlindRotateState& st, GateTestvSpectra* tc) {
  (void)tc; // spectral test-vector reuse is a fused-path (SIMD) optimization
  if (!build_bundle(eng, key.gadget, key.groups[g], exponents, bundle)) return;
  external_product(eng, key.gadget, bundle, acc, ws, /*a_is_zero=*/st.pristine);
  st.pristine = false;
}

/// Fused bundle-MAC group step for the SIMD engine (bku/bundle.cpp): digit
/// spectra of ACC once, then per active subset one row-blocked MAC
/// (mac2_rows) over the subset's block of the key's `soa` arena into the
/// sub-accumulators, and the rotation factor (X^{-c} - 1), materialized once
/// by rot_factor, rotates the subset-sum into the accumulator with one mac2;
/// the gadget identity H folds into real scale_adds of the digit spectra.
/// On the pristine step the a-half vanishes (zero_fft_skips) and, when `tc`
/// carries the constant gate test vector, the b-digit spectra synthesize
/// from the cached F(ones) instead of running forward FFTs
/// (testv_fft_reuses).
void bundle_rotate_step(const SimdFftEngine& eng,
                        const DeviceBootstrapKey<SimdFftEngine>& key, int g,
                        const std::vector<int32_t>& exponents, TLweSample& acc,
                        TGswSpectral<SimdFftEngine>& bundle,
                        ExternalProductWorkspace<SimdFftEngine>& ws,
                        BlindRotateState& st, GateTestvSpectra* tc);

/// Allocate a bundle with the right shape for `key` under `eng`.
template <class Engine>
TGswSpectral<Engine> make_bundle_storage(const Engine& eng,
                                         const GadgetParams& gadget) {
  TGswSpectral<Engine> b;
  b.rows.resize(2 * gadget.l);
  for (auto& row : b.rows) {
    row[0] = typename Engine::Spectral(eng.spectral_size());
    row[1] = typename Engine::Spectral(eng.spectral_size());
  }
  return b;
}

} // namespace matcha
