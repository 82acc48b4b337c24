// Runtime ISA dispatch for the SIMD spectral kernels.
//
// The library ships three implementations of the planar spectral kernel set
// (scalar, AVX2+FMA, AVX-512); which one runs is decided once per process
// from the host CPU plus an environment override:
//
//   MATCHA_SIMD=off|scalar   force the portable scalar kernels
//   MATCHA_SIMD=avx2|avx512  request that ISA. A request the CPU cannot
//                            satisfy degrades to the best level it *can* run
//                            (avx512 -> avx2 -> scalar).
//   MATCHA_SIMD=native       (or unset) use the best level the CPU supports
//
// Any other value runs the scalar kernels. A host that is not x86-64 (e.g.
// aarch64) detects the scalar level.
//
// The override exists so CI can pin lower tiers on hardware that *does* have
// the wider vector units -- the dispatch matrix runs native, forced-avx2 and
// forced-scalar legs so every code path stays green even when the runner
// fleet is heterogeneous -- and so benches can measure tier-vs-tier on one
// machine.
#pragma once

namespace matcha {

enum class SimdLevel {
  kScalar,
  kAvx2,   ///< x86-64 AVX2 + FMA3
  kAvx512, ///< x86-64 AVX-512 F + DQ (implies AVX2 + FMA)
};

const char* simd_level_name(SimdLevel level);

/// Best level the running CPU supports (no environment override applied).
SimdLevel detect_simd_level();

/// True when this binary + CPU can execute `level`'s kernels: the level is
/// at most the hardware level (an AVX-512 CPU runs the AVX2 set).
bool simd_level_available(SimdLevel level);

/// Resolve an override string against a hardware level. `override_value` may
/// be nullptr (no override). Pure function, exposed for unit tests.
SimdLevel resolve_simd_level(const char* override_value, SimdLevel hw);

/// detect_simd_level() combined with the MATCHA_SIMD override, computed once
/// and cached for the process lifetime.
SimdLevel active_simd_level();

} // namespace matcha
