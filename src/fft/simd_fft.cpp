#include "fft/simd_fft.h"

#include <cassert>

#include "common/bits.h"

namespace matcha {

SimdFftEngine::SimdFftEngine(int n_ring, SimdLevel level)
    : n_(n_ring),
      m_(n_ring / 2),
      level_(level),
      kernels_(&spectral_kernels(level)),
      plan_(n_ring),
      work_re_(static_cast<size_t>(n_ring / 2), 0.0),
      work_im_(static_cast<size_t>(n_ring / 2), 0.0) {
  assert(is_pow2(static_cast<uint64_t>(n_ring)) && n_ring >= 8);
}

void SimdFftEngine::forward_raw(const int32_t* in, double* re, double* im) const {
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  kernels_->forward(plan_, in, re, im);
}

void SimdFftEngine::inverse_raw(const double* re, const double* im,
                                Torus32* out) const {
  ScopedTimer t(counters_.from_spectral_ns, counters_.from_spectral_calls);
  kernels_->inverse_torus(plan_, re, im, work_re_.data(), work_im_.data(), out);
}

} // namespace matcha
