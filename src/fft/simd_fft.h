// SIMD-vectorized split-format spectral engine -- the fast software path.
//
// The engine of the fused bundle step (bku/bundle.h), built for speed on
// commodity CPUs. Unlike DoubleFftEngine/LiftFftEngine it does not implement
// the engine-generic spectral API (to_spectral / mac / from_spectral): the
// fused bundle_rotate_step is its only external product and calls the
// vtable's kernels directly, so the engine holds just the plan, the kernel
// set, the counters and the two timed transforms:
//
//   * planar operands (aligned re[]/im[] planes, spectral.h) so every kernel
//     is contiguous full-width vector arithmetic;
//   * iterative radix-4 negacyclic FFT with the twist fused into the first
//     forward stage and untwist+scale+round fused into the last inverse
//     stage; the spectrum stays in digit-reversed storage order, so the
//     MAC-only external-product path never runs a bit-reverse pass
//     (fft/spectral_kernels.h documents the dataflow);
//   * kernels written once over the fft/simd.h policies (scalar, AVX2+FMA,
//     AVX-512), selected at runtime (common/simd_dispatch.h; the scalar
//     set is the always-available fallback and the MATCHA_SIMD=off CI leg).
//
// Exactness: like the double engine, results are decrypt-path bit-identical
// to the schoolbook reference -- all paths round at the same fixed
// half-away-from-zero point (simd.h rounding contract) and the spectral
// error stays far below half a torus LSB. Scalar and SIMD levels may differ
// in the last float ulps (FMA contraction), which is orders of magnitude
// below the noise a decryption tolerates; tests/test_simd_spectral.cpp pins
// the decrypted-output bit-identity across levels.
//
// Thread safety: engines carry mutable scratch + counters; one engine per
// thread (the BatchExecutor already provisions per-worker engines). The
// DoubleFftEngine remains the exactness/dataflow reference for the paper
// study; this engine is what the software gate path runs.
#pragma once

#include "common/simd_dispatch.h"
#include "fft/engine_counters.h"
#include "fft/spectral.h"
#include "fft/spectral_kernels.h"
#include "tfhe/tgsw.h"

namespace matcha {

class SimdFftEngine {
 public:
  /// The planar spectrum type the key and workspace templates name.
  using Spectral = SpectralP;

  explicit SimdFftEngine(int n_ring, SimdLevel level = active_simd_level());

  int ring_n() const { return n_; }
  int spectral_size() const { return m_; }
  SimdLevel level() const { return level_; }
  const char* level_name() const { return kernels_->name; }

  /// Coefficients -> spectral (the paper's "IFFT"): the N int32 coefficients
  /// at `in` (torus buffers reinterpreted) into the m-slot re/im planes, in
  /// digit-reversed storage order.
  void forward_raw(const int32_t* in, double* re, double* im) const;
  /// Spectral -> torus coefficients, wrapped mod 2^32 (the paper's "FFT").
  /// Each call of either transform is one timed to_spectral / from_spectral
  /// kernel invocation (the counter scope contract of engine_counters.h).
  void inverse_raw(const double* re, const double* im, Torus32* out) const;

  const NegacyclicPlan& plan() const { return plan_; }
  const SpectralKernels& kernels() const { return *kernels_; }
  EngineCounters& counters() const { return counters_; }

 private:
  int n_, m_;
  SimdLevel level_;
  const SpectralKernels* kernels_;
  NegacyclicPlan plan_;
  mutable AlignedVector<double> work_re_, work_im_;
  mutable EngineCounters counters_;
};

/// Fused external-product workspace: the 2l digit polynomials and their 2l
/// spectral planes live in two contiguous aligned buffers, preallocated once
/// (per BootstrapWorkspace / per worker thread) so the hot path never
/// allocates, and the back-to-back digit FFTs stream through one arena.
template <>
struct ExternalProductWorkspace<SimdFftEngine> {
  int l = 0, n = 0, m = 0;
  AlignedVector<int32_t> digits; ///< 2l planes of n int32 digits
  AlignedVector<double> spec;    ///< 2l planes of re[m] then im[m]
  AlignedVector<double> rotf;    ///< fused-path X^{-c}-1 factor, re[m] im[m]
  SpectralP acc_a, acc_b;
  /// Fused-path per-subset sub-accumulators: u = sum_r digit_r (*) key_row_r
  /// per column, rotated into acc_a/acc_b by one mac2 against rotf.
  SpectralP sub_a, sub_b;

  ExternalProductWorkspace(const SimdFftEngine& eng, const GadgetParams& g)
      : l(g.l),
        n(eng.ring_n()),
        m(eng.spectral_size()),
        digits(static_cast<size_t>(2 * g.l) * static_cast<size_t>(eng.ring_n()),
               0),
        spec(static_cast<size_t>(2 * g.l) * 2 *
                 static_cast<size_t>(eng.spectral_size()),
             0.0),
        rotf(2 * static_cast<size_t>(eng.spectral_size()), 0.0),
        acc_a(eng.spectral_size()),
        acc_b(eng.spectral_size()),
        sub_a(eng.spectral_size()),
        sub_b(eng.spectral_size()) {}

  int32_t* digit_plane(int r) { return digits.data() + static_cast<size_t>(r) * n; }
  double* spec_re(int r) { return spec.data() + static_cast<size_t>(r) * 2 * m; }
  double* spec_im(int r) { return spec_re(r) + m; }
};

} // namespace matcha
