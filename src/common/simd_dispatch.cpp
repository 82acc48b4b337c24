#include "common/simd_dispatch.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace matcha {

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

SimdLevel detect_simd_level() {
#if defined(__x86_64__) || defined(__i386__)
  // The AVX-512 kernels use F (arithmetic, masks) and DQ (vcvttpd2qq on the
  // Torus32 store path); FMA is required alongside AVX2 because the kernels
  // fuse every complex multiply-accumulate and are compiled with -mfma.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

bool simd_level_available(SimdLevel level) {
  // Levels are ordered scalar < avx2 < avx512, and a CPU runs every level up
  // to the one it detects (AVX-512 implies AVX2+FMA).
  return level <= detect_simd_level();
}

SimdLevel resolve_simd_level(const char* override_value, SimdLevel hw) {
  if (override_value == nullptr || *override_value == '\0' ||
      std::strcmp(override_value, "native") == 0) {
    return hw;
  }
  if (std::strcmp(override_value, "off") == 0 ||
      std::strcmp(override_value, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  // A requested ISA is honored only when the hardware actually runs it. A
  // request above the hardware tier degrades to the hardware tier (avx512 on
  // an AVX2 box runs avx2); an unknown string degrades to scalar rather than
  // crashing on an illegal instruction.
  if (std::strcmp(override_value, "avx512") == 0 ||
      std::strcmp(override_value, "avx2") == 0) {
    const SimdLevel want = std::strcmp(override_value, "avx512") == 0
                               ? SimdLevel::kAvx512
                               : SimdLevel::kAvx2;
    return std::min(want, hw);
  }
  return SimdLevel::kScalar;
}

SimdLevel active_simd_level() {
  static const SimdLevel level =
      resolve_simd_level(std::getenv("MATCHA_SIMD"), detect_simd_level());
  return level;
}

} // namespace matcha
