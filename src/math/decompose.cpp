#include "math/decompose.h"

#include <cassert>

#include "common/simd_dispatch.h"
#include "fft/spectral_kernels.h"

namespace matcha {

Torus32 GadgetParams::rounding_offset() const {
  Torus32 offset = 0;
  for (int j = 1; j <= l; ++j) {
    offset += (bg() / 2) * (1u << (32 - j * bg_bits));
  }
  // Center the truncation of the bits below the gadget: without this the
  // recomposition error is one-sided in [-Bg^-l, 0]; with it, +-Bg^-l/2.
  if (l * bg_bits < 32) offset += 1u << (32 - l * bg_bits - 1);
  return offset;
}

void decompose_coefficient(const GadgetParams& g, Torus32 t, int32_t* digits) {
  const uint32_t bg = g.bg();
  const uint32_t mask = bg - 1;
  const int32_t half = static_cast<int32_t>(bg / 2);
  const Torus32 tt = t + g.rounding_offset();
  for (int j = 0; j < g.l; ++j) {
    const uint32_t raw = (tt >> (32 - (j + 1) * g.bg_bits)) & mask;
    digits[j] = static_cast<int32_t>(raw) - half;
  }
}

void decompose_polynomial(const GadgetParams& g, const TorusPolynomial& p,
                          IntPolynomial* digits) {
  const int n = p.size();
  assert(g.l <= 32); // l * bg_bits <= 32 bounds l
  int32_t* planes[32];
  for (int j = 0; j < g.l; ++j) {
    assert(digits[j].size() == n);
    planes[j] = digits[j].coeffs.data();
  }
  // Integer-exact on every kernel level, so routing through the runtime
  // dispatch (scalar / AVX2 / AVX-512) never changes a digit.
  spectral_kernels(active_simd_level())
      .decompose(g.l, g.bg_bits, g.rounding_offset(), n, p.coeffs.data(),
                 planes);
}

int32_t mod_switch_to_2n(Torus32 t, int n_ring) {
  // round(t / 2^32 * 2N) mod 2N, computed in 64 bits.
  const uint64_t two_n = static_cast<uint64_t>(2) * n_ring;
  const uint64_t scaled = static_cast<uint64_t>(t) * two_n + (1ULL << 31);
  return static_cast<int32_t>((scaled >> 32) % two_n);
}

Torus32 recompose_coefficient(const GadgetParams& g, const int32_t* digits) {
  Torus32 acc = 0;
  for (int j = 0; j < g.l; ++j) {
    acc += static_cast<Torus32>(digits[j]) * (1u << (32 - (j + 1) * g.bg_bits));
  }
  return acc;
}

} // namespace matcha
