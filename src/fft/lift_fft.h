// Approximate multiplication-less integer FFT engine (MATCHA section 4.1).
//
// Every complex rotation -- the DFT butterfly twiddles and the negacyclic
// twist factors -- is realized by the lifting structure (Oraintara et al.,
// "Integer fast Fourier transform", IEEE TSP 2002): an exact quadrant flip
// plus three lifting steps with dyadic-value-quantized coefficients (DVQTFs,
// `alpha / 2^(t-1)` with t = twiddle_bits). A dyadic constant multiply is a
// CSD shift-add network in hardware; here we compute the numerically
// identical rounded product and charge the energy model the CSD adder count.
// The transform is therefore integer-to-integer: only 64-bit additions and
// binary shifts, exactly the butterfly core of Fig. 7(d) (two 64-bit adders
// + two 64-bit shifters per lane).
//
// The approximation error this engine introduces into each ciphertext is
// absorbed by TFHE's per-gate bootstrapping (the paper's key observation);
// bench/fig8_fft_error sweeps twiddle_bits to regenerate Fig. 8.
//
// Scaling ledger (see DESIGN.md): decomposition digits are pre-shifted left
// by kDigitPreShift so lifting round-off (+-0.5 per step) is negligible
// relative to the signal; the 128-bit MAC result is shifted right by
// kMacShift before the inverse transform so spectral values stay within
// int64 through the unnormalized inverse DFT; the final exponent
// log2(N/2) + kDigitPreShift - kMacShift is applied once at the output.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "fft/engine_counters.h"
#include "fft/spectral.h"
#include "fft/tables.h"
#include "math/polynomial.h"

namespace matcha {

class LiftFftEngine {
 public:
  using Spectral = SpectralI;
  using SpectralAcc = SpectralAccI;

  // Scaling ledger. Lifting round-off is +-0.5 absolute per step, so inputs
  // are pre-shifted to push it far below the signal: gadget digits
  // (|d| <= Bg/2 = 2^9) by 30 bits (worst spectral 2^48.5), torus values by
  // 10 bits (worst key spectral 2^50.5; bundles with up to 2^4-1 unrolled
  // terms stay below 2^55.5). The 128-bit MAC is rescaled by 52 bits so the
  // unnormalized inverse DFT stays inside int64 for all uniformly-random
  // masks the scheme produces (encryption masks are uniform by construction;
  // see DESIGN.md for the concentration argument).
  static constexpr int kDigitPreShift = 30;
  static constexpr int kTorusPreShift = 10;
  static constexpr int kMacShift = 52;
  /// Fraction bits of the TGSW-cluster rotation constants used by
  /// rot_scale_add (the cluster's 32-bit integer multipliers).
  static constexpr int kRotFracBits = 30;

  explicit LiftFftEngine(int n_ring, int twiddle_bits = 64);

  int ring_n() const { return n_; }
  int spectral_size() const { return m_; }
  int twiddle_bits() const { return tables_.twiddle_bits; }

  /// Coefficients -> spectral (paper "IFFT"). Digits are pre-shifted by
  /// kDigitPreShift; |coeffs| must be < 2^11 (gadget digits are <= Bg/2).
  void to_spectral_int(const IntPolynomial& p, Spectral& out) const;
  /// Torus coefficients -> spectral at native scale (bootstrapping keys).
  void to_spectral_torus(const TorusPolynomial& p, Spectral& out) const;

  /// Spectral (torus scale) -> torus coefficients mod 2^32.
  void from_spectral_torus(const Spectral& s, TorusPolynomial& out) const;

  /// External-product accumulator path: acc += digit_spectral (*) key_spectral.
  void acc_init(SpectralAcc& acc) const {
    acc.re.assign(m_, 0);
    acc.im.assign(m_, 0);
  }
  void mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const;
  /// Inverse transform of the accumulated products (digit x torus scale),
  /// wrapped to Torus32.
  void from_spectral_acc(const SpectralAcc& acc, TorusPolynomial& out) const;

  /// Bundle construction: dst += (X^{-c} - 1) * src, c mod 2N. Uses the TGSW
  /// cluster's integer multipliers (kRotFracBits fixed-point), not lifting.
  void rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const;
  void add_constant(Spectral& dst, Torus32 g) const;

  /// Apply one quantized rotation in place (exposed for the
  /// perfect-reconstruction property tests).
  void apply_rotation(int64_t& x, int64_t& y, const LiftRotation& r) const;
  void apply_rotation_inverse(int64_t& x, int64_t& y, const LiftRotation& r) const;

  const LiftTables& tables() const { return tables_; }
  EngineCounters& counters() const { return counters_; }

 private:
  void dft(int64_t* re, int64_t* im, bool inverse) const;
  void bit_reverse(int64_t* re, int64_t* im) const;

  int n_, m_, log2m_;
  LiftTables tables_;
  mutable EngineCounters counters_;
};

} // namespace matcha
