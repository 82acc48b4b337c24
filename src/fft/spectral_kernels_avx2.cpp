// AVX2+FMA kernel table: spectral_kernels_impl.h instantiated over
// simd::Avx2. This TU (and only this TU plus the simd.h policy it
// instantiates) is compiled with -mavx2 -mfma on x86-64 targets; the vtable
// is plain data, so merely linking it never executes an AVX2 instruction --
// dispatch guarantees the kernels run only when cpuid reports AVX2+FMA.
#include "fft/spectral_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include "fft/spectral_kernels_impl.h"

namespace matcha {

const SpectralKernels* spectral_kernels_avx2() {
  static constexpr SpectralKernels kKernels =
      detail::kernel_table<simd::Avx2>("avx2");
  return &kKernels;
}

} // namespace matcha

#else // !(__AVX2__ && __FMA__)

namespace matcha {
const SpectralKernels* spectral_kernels_avx2() { return nullptr; }
} // namespace matcha

#endif
