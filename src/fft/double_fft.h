// Double-precision negacyclic FFT engine -- the exactness reference.
//
// This is what the TFHE library itself uses ("64-bit double-precision
// floating point FFT and IFFT kernels"): the baseline MATCHA compares its
// approximate integer engine against. Two interchangeable DFT dataflows are
// provided so the dataflow study (breadth-first Cooley-Tukey vs depth-first
// conjugate-pair) can be benchmarked at equal arithmetic:
//   - kBreadthFirstCooleyTukey: iterative radix-2 DIT with an explicit
//     bit-reversal pass (the flow most prior FHE accelerators use);
//   - kDepthFirstConjugatePair: the CPFFT flow MATCHA adopts.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "fft/cp_fft.h"
#include "fft/engine_counters.h"
#include "fft/spectral.h"
#include "math/polynomial.h"

namespace matcha {

enum class FftFlow {
  kBreadthFirstCooleyTukey,
  kDepthFirstConjugatePair,
};

class DoubleFftEngine {
 public:
  using Spectral = SpectralD;
  using SpectralAcc = SpectralD;

  explicit DoubleFftEngine(int n_ring,
                           FftFlow flow = FftFlow::kDepthFirstConjugatePair);

  int ring_n() const { return n_; }
  int spectral_size() const { return m_; }
  FftFlow flow() const { return flow_; }

  /// Coefficients -> spectral (the paper's "IFFT").
  void to_spectral_int(const IntPolynomial& p, Spectral& out) const;
  void to_spectral_torus(const TorusPolynomial& p, Spectral& out) const;

  /// Spectral -> torus coefficients, wrapped mod 2^32 (the paper's "FFT").
  void from_spectral_torus(const Spectral& s, TorusPolynomial& out) const;

  /// Accumulator interface used by external products: acc += a (*) b.
  void acc_init(SpectralAcc& acc) const { acc.v.assign(m_, {0.0, 0.0}); }
  void mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const;
  void from_spectral_acc(const SpectralAcc& acc, TorusPolynomial& out) const {
    from_spectral_torus(acc, out);
  }

  /// Bundle construction primitives (spectral-domain TGSW scale units):
  /// dst += (X^{-c} - 1) * src, c taken mod 2N.
  void rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const;
  /// dst += g (a constant polynomial g has constant spectrum g).
  void add_constant(Spectral& dst, Torus32 g) const;

  EngineCounters& counters() const { return counters_; }

 private:
  void dft(std::complex<double>* data, int sign) const;
  void bit_reverse(std::complex<double>* data) const;

  int n_, m_;
  FftFlow flow_;
  std::vector<std::complex<double>> twist_fwd_, twist_inv_;
  std::vector<std::complex<double>> roots_fwd_, roots_inv_; ///< breadth-first tables
  std::unique_ptr<CpFft> cp_fwd_, cp_inv_;
  mutable std::vector<std::complex<double>> work_;
  mutable std::vector<std::complex<double>> dft_src_; ///< depth-first input copy
  mutable EngineCounters counters_;
};

} // namespace matcha
