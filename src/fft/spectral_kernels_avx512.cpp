// AVX-512 (F + DQ) kernel table, the widest x86 dispatch tier:
// spectral_kernels_impl.h instantiated over simd::Avx512 (W = 8 doubles,
// WU = 16 uint32 lanes). This TU is the only one compiled with -mavx512f
// -mavx512dq; the vtable is plain data, so linking it never executes an
// AVX-512 instruction -- dispatch (common/simd_dispatch.cpp) hands these
// kernels out only when cpuid reports both features.
#include "fft/spectral_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "fft/spectral_kernels_impl.h"

namespace matcha {

const SpectralKernels* spectral_kernels_avx512() {
  static constexpr SpectralKernels kKernels =
      detail::kernel_table<simd::Avx512>("avx512");
  return &kKernels;
}

} // namespace matcha

#else // !(__AVX512F__ && __AVX512DQ__)

namespace matcha {
const SpectralKernels* spectral_kernels_avx512() { return nullptr; }
} // namespace matcha

#endif
