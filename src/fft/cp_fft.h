// Depth-first conjugate-pair FFT (CPFFT).
//
// This is the dataflow MATCHA's FFT/IFFT cores execute (paper section 4.1,
// citing Becoulet & Verguet, IEEE TSP 2021). Compared with the breadth-first
// Cooley-Tukey flow it (a) needs a single complex root-of-unity load per
// radix-4 butterfly, because the two odd sub-transforms use twiddles w^k and
// w^-k (a conjugate pair), and (b) traverses the splitting tree depth-first,
// finishing a sub-transform before starting the next, which captures spatial
// locality in the register banks. We implement the recursive formulation --
// recursion *is* the depth-first traversal; the cited paper merely makes the
// same order iterative for constant-memory hardware.
//
// The transform is a plain complex DFT of size n (no normalization):
//   out[k] = sum_j in[j] * exp(sign * 2*pi*i*j*k/n).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace matcha {

class CpFft {
 public:
  /// Per-transform dataflow statistics, used to validate the paper's claim
  /// that CPFFT halves twiddle-buffer reads versus breadth-first radix-2.
  struct Stats {
    int64_t twiddle_loads = 0;
    int64_t butterflies = 0;
  };

  CpFft(int n, int sign);

  int size() const { return n_; }

  /// out must not alias in. Not thread-safe (shared scratch), matching the
  /// single-issue FFT core it models.
  void transform(const std::complex<double>* in, std::complex<double>* out) const;

  const Stats& stats() const { return stats_; }

 private:
  void recurse(std::complex<double>* out, const std::complex<double>* in,
               int64_t base, int64_t stride, int n) const;

  int n_;
  int sign_;
  std::vector<std::complex<double>> roots_; ///< roots_[j] = exp(sign*2*pi*i*j/n)
  mutable std::vector<std::complex<double>> scratch_;
  mutable Stats stats_;
};

} // namespace matcha
