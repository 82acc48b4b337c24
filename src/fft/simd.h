// Portable SIMD shim for the planar spectral kernels.
//
// Each ISA is a policy struct exposing the same tiny vocabulary of W-wide
// double-lane operations; fft/spectral_kernels_impl.h instantiates one
// kernel set per policy and the per-ISA TUs export them behind the runtime
// vtable (fft/spectral_kernels.h). The policies are deliberately minimal:
// load/store, add/sub/mul, fused multiply-add/sub, int32->double widening,
// the library's fixed rounding point, the Torus32 wrap-around store, and the
// shuffle-heavy end of the transform that cannot be expressed lane-wise. On
// the scalar policy that is the adjacent-pair butterfly of the final radix-2
// stage; the wide policies (Avx2, Avx512), whose vectors span half or all of
// an 8-slot block, replace it with the fused leaf (dif_leaves / dit_leaves):
// the last radix-4 stage (size 8, q = 2) and the pair stage run on each
// block while it sits in registers, with the same per-lane add/sub operands
// and fmsub/fmadd-with-separate-mul twiddle products as the generic
// butterflies of fft/spectral_kernels_impl.h.
//
// Alongside the double lanes every policy exposes a WU-wide *integer* lane
// vocabulary over uint32 (load/store, add/sub, shift/mask, nonzero-select).
// Torus arithmetic is exact mod 2^32, so these lanes are bit-identical
// across every ISA by construction; the keyswitch kernels (digit extraction
// and the streaming row accumulate, fft/spectral_kernels_impl.h) are built
// from them.
//
// Rounding contract: round_away(x) = trunc(x + copysign(0.5, x)) -- round
// half away from zero, the same rule std::llround applies. All policies
// compute it with this exact double sequence, so a given kernel level is
// deterministic, and every level agrees with std::llround whenever x is
// farther than one ulp from a half-integer (always true on the decrypt
// path, whose spectral error is bounded far below 0.5; see DESIGN.md).
//
// The AVX2 policy only compiles in TUs built with -mavx2 -mfma
// (spectral_kernels_avx2.cpp), the AVX-512 policy in TUs built with
// -mavx512f -mavx512dq (spectral_kernels_avx512.cpp); including this header
// elsewhere is harmless. GCC's -mavx512f defines __AVX2__ but not __FMA__,
// so the intrinsics header is included for either x86 block on its own.
#pragma once

#include <cmath>
#include <cstdint>

#if (defined(__AVX2__) && defined(__FMA__)) || \
    (defined(__AVX512F__) && defined(__AVX512DQ__))
#include <immintrin.h>
#endif

namespace matcha::simd {

// ------------------------------------------------------------------ scalar
struct Scalar {
  static constexpr int W = 1;
  using vd = double;

  static vd load(const double* p) { return *p; }
  static void store(double* p, vd v) { *p = v; }
  static vd set1(double x) { return x; }
  static vd add(vd a, vd b) { return a + b; }
  static vd sub(vd a, vd b) { return a - b; }
  static vd mul(vd a, vd b) { return a * b; }
  static vd fmadd(vd a, vd b, vd c) { return a * b + c; }
  static vd fmsub(vd a, vd b, vd c) { return a * b - c; }
  static vd load_i32(const int32_t* p) { return static_cast<double>(*p); }
  static vd round_away(vd x) {
    // trunc via the toward-zero int64 conversion (one cvttsd2si): identical
    // to std::trunc for the contract's |x| < 2^52, without the libm call
    // that otherwise dominates the inverse transform's fused last stage.
    return static_cast<double>(static_cast<int64_t>(x + std::copysign(0.5, x)));
  }
  static void store_torus(uint32_t* p, vd x) {
    // int64 -> uint32 narrows mod 2^32, realizing the torus wrap. |x| stays
    // below 2^52 (DESIGN.md scaling bound) so the conversion is exact.
    *p = static_cast<uint32_t>(static_cast<int64_t>(x));
  }
  /// (a, b) -> (a + b, a - b) over `pairs` adjacent pairs; src may == dst.
  static void butterfly_pairs(const double* src, double* dst, int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const double a = src[2 * i], b = src[2 * i + 1];
      dst[2 * i] = a + b;
      dst[2 * i + 1] = a - b;
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 1;
  using vu = uint32_t;
  static vu load_u32(const uint32_t* p) { return *p; }
  static void store_u32(uint32_t* p, vu v) { *p = v; }
  static vu set1_u32(uint32_t x) { return x; }
  static vu add_u32(vu a, vu b) { return a + b; }
  static vu sub_u32(vu a, vu b) { return a - b; }
  static vu and_u32(vu a, vu b) { return a & b; }
  static vu srl_u32(vu a, int count) { return a >> count; }
  /// Per-lane: cond != 0 ? a : b.
  static vu select_nz_u32(vu cond, vu a, vu b) { return cond != 0 ? a : b; }
};

// ------------------------------------------------------------- AVX2 + FMA
#if defined(__AVX2__) && defined(__FMA__)
struct Avx2 {
  static constexpr int W = 4;
  using vd = __m256d;

  static vd load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, vd v) { _mm256_storeu_pd(p, v); }
  static vd set1(double x) { return _mm256_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm256_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
  static vd fmadd(vd a, vd b, vd c) { return _mm256_fmadd_pd(a, b, c); }
  static vd fmsub(vd a, vd b, vd c) { return _mm256_fmsub_pd(a, b, c); }
  static vd load_i32(const int32_t* p) {
    return _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vd round_away(vd x) {
    const vd sign = _mm256_and_pd(x, _mm256_set1_pd(-0.0));
    const vd half = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
    return _mm256_round_pd(_mm256_add_pd(x, half),
                           _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static void store_torus(uint32_t* p, vd x) {
    // Reduce the integral value mod 2^32 into [0, 2^32), then use the 2^52
    // mantissa trick: fl(v + 2^52) carries v verbatim in its low 32 bits.
    // Every step is exact for integral |x| < 2^52.
    const vd two32 = _mm256_set1_pd(4294967296.0);
    const vd q = _mm256_floor_pd(_mm256_mul_pd(x, _mm256_set1_pd(1.0 / 4294967296.0)));
    const vd v = _mm256_fnmadd_pd(q, two32, x);
    const vd biased = _mm256_add_pd(v, _mm256_set1_pd(4503599627370496.0)); // 2^52
    const __m256i bits = _mm256_castpd_si256(biased);
    const __m256i low = _mm256_permutevar8x32_epi32(
        bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(low));
  }
  /// Forward leaf over the m slots of re/im, one 8-slot block at a time:
  /// the size-8 radix-4 DIF stage (twiddle table `tw`, six planes of `seg`
  /// doubles with lanes 0-1 live -- PlanStage's layout) and then the pair
  /// stage. A block is two vectors per plane, lo = slots 0-3 and hi = slots
  /// 4-7; butterfly j (0 or 1) reads a, b, c, d at slots j, j+2, j+4, j+6,
  /// so lo + hi = [t0 | t2] and lo - hi = [t1 | t3].
  static void dif_leaves(const double* tw, int seg, double* re, double* im,
                         int m) {
    const LeafTwiddles w = leaf_twiddles(tw, seg);
    for (int b = 0; b < m; b += 8) {
      const vd lor = load(re + b), hir = load(re + b + 4);
      const vd loi = load(im + b), hii = load(im + b + 4);
      const vd sr = add(lor, hir), si = add(loi, hii); // [t0 | t2]
      const vd dr = sub(lor, hir), di = sub(loi, hii); // [t1 | t3]
      // p = [t0 | t1]; the re plane pairs it with [t2.re | t3.im], the im
      // plane with [t2.im | t3.re].
      const vd pr = _mm256_permute2f128_pd(sr, dr, 0x20);
      const vd pi = _mm256_permute2f128_pd(si, di, 0x20);
      const vd qr = _mm256_permute2f128_pd(sr, di, 0x31);
      const vd qi = _mm256_permute2f128_pd(si, dr, 0x31);
      // Slots 0-3 = [t0 + t2 | t1 + i*t3], slots 4-7 = [t0 - t2 | t1 - i*t3].
      const vd ar = add(pr, qr), br = sub(pr, qr);
      const vd lo_r = _mm256_blend_pd(ar, br, 0xC);
      const vd hi_r = _mm256_blend_pd(br, ar, 0xC);
      const vd lo_i = add(pi, qi), hi_i = sub(pi, qi);
      // w1 on slots 2-3 (slots 0-1 pass through), w2 | w3 on slots 4-7.
      store(re + b, pairs(_mm256_blend_pd(
                        lo_r, fmsub(lo_r, w.w1r, mul(lo_i, w.w1i)), 0xC)));
      store(im + b, pairs(_mm256_blend_pd(
                        lo_i, fmadd(lo_r, w.w1i, mul(lo_i, w.w1r)), 0xC)));
      store(re + b + 4, pairs(fmsub(hi_r, w.w23r, mul(hi_i, w.w23i))));
      store(im + b + 4, pairs(fmadd(hi_r, w.w23i, mul(hi_i, w.w23r))));
    }
  }
  /// Inverse leaf, the mirror image: per block, the pair stage, the size-8
  /// stage's twiddles (conjugated table `tw`) and its radix-4 DIT
  /// butterflies. Reads sre/sim, writes wre/wim.
  static void dit_leaves(const double* tw, int seg, const double* sre,
                         const double* sim, double* wre, double* wim, int m) {
    const LeafTwiddles w = leaf_twiddles(tw, seg);
    for (int b = 0; b < m; b += 8) {
      const vd xr = pairs(load(sre + b)), xi = pairs(load(sim + b));
      const vd yr = pairs(load(sre + b + 4)), yi = pairs(load(sim + b + 4));
      // w1 on slots 2-3 (slots 0-1 pass through), w2 | w3 on slots 4-7.
      const vd lo_r =
          _mm256_blend_pd(xr, fmsub(xr, w.w1r, mul(xi, w.w1i)), 0xC);
      const vd lo_i =
          _mm256_blend_pd(xi, fmadd(xr, w.w1i, mul(xi, w.w1r)), 0xC);
      const vd hi_r = fmsub(yr, w.w23r, mul(yi, w.w23i));
      const vd hi_i = fmadd(yr, w.w23i, mul(yi, w.w23r));
      const vd sr = add(lo_r, hi_r), si = add(lo_i, hi_i); // [s0 | s2]
      const vd dr = sub(lo_r, hi_r), di = sub(lo_i, hi_i); // [s1 | s3]
      const vd pr = _mm256_permute2f128_pd(sr, dr, 0x20);
      const vd pi = _mm256_permute2f128_pd(si, di, 0x20);
      const vd qr = _mm256_permute2f128_pd(sr, di, 0x31);
      const vd qi = _mm256_permute2f128_pd(si, dr, 0x31);
      // Slots 0-3 = [s0 + s2 | s1 - i*s3], slots 4-7 = [s0 - s2 | s1 + i*s3].
      store(wre + b, add(pr, qr));
      store(wre + b + 4, sub(pr, qr));
      const vd ai = add(pi, qi), bi = sub(pi, qi);
      store(wim + b, _mm256_blend_pd(ai, bi, 0xC));
      store(wim + b + 4, _mm256_blend_pd(bi, ai, 0xC));
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 8;
  using vu = __m256i;
  static vu load_u32(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_u32(uint32_t* p, vu v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vu set1_u32(uint32_t x) {
    return _mm256_set1_epi32(static_cast<int32_t>(x));
  }
  static vu add_u32(vu a, vu b) { return _mm256_add_epi32(a, b); }
  static vu sub_u32(vu a, vu b) { return _mm256_sub_epi32(a, b); }
  static vu and_u32(vu a, vu b) { return _mm256_and_si256(a, b); }
  static vu srl_u32(vu a, int count) {
    return _mm256_srl_epi32(a, _mm_cvtsi32_si128(count));
  }
  static vu select_nz_u32(vu cond, vu a, vu b) {
    const vu is_zero = _mm256_cmpeq_epi32(cond, _mm256_setzero_si256());
    return _mm256_blendv_epi8(a, b, is_zero);
  }

 private:
  /// The leaf's twiddles: w1 on lanes 2-3 of the low vector (lanes 0-1 are
  /// blended away), w2 | w3 across the high one.
  struct LeafTwiddles {
    vd w1r, w1i, w23r, w23i;
  };
  static LeafTwiddles leaf_twiddles(const double* tw, int seg) {
    const auto pair = [&](int plane) { return _mm_loadu_pd(tw + plane * seg); };
    const vd zero = _mm256_setzero_pd();
    return {_mm256_insertf128_pd(zero, pair(0), 1),
            _mm256_insertf128_pd(zero, pair(1), 1),
            _mm256_set_m128d(pair(4), pair(2)),
            _mm256_set_m128d(pair(5), pair(3))};
  }
  /// (a, b) -> (a + b, a - b) on both adjacent pairs of x.
  static vd pairs(vd x) {
    const vd y = _mm256_permute_pd(x, 0b0101); // b0 a0 b1 a1
    const vd nx = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
    // addsub(y, -x) = [y0+x0, y1-x1, ...] = [a+b, a-b, ...]
    return _mm256_addsub_pd(y, nx);
  }
};
#endif // __AVX2__ && __FMA__

// ----------------------------------------------------------- AVX-512 F+DQ
#if defined(__AVX512F__) && defined(__AVX512DQ__)
struct Avx512 {
  static constexpr int W = 8;
  using vd = __m512d;

  static vd load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, vd v) { _mm512_storeu_pd(p, v); }
  static vd set1(double x) { return _mm512_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm512_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
  static vd fmadd(vd a, vd b, vd c) { return _mm512_fmadd_pd(a, b, c); }
  static vd fmsub(vd a, vd b, vd c) { return _mm512_fmsub_pd(a, b, c); }
  // The zero-masked forms with an all-ones mask below compile to the same
  // unmasked instructions as the plain intrinsics, whose GCC expansions pass
  // an _mm512_undefined_* source and trip -Wmaybe-uninitialized.
  static vd load_i32(const int32_t* p) {
    return _mm512_maskz_cvtepi32_pd(
        0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vd round_away(vd x) {
    const vd sign = _mm512_and_pd(x, _mm512_set1_pd(-0.0)); // DQ: vandpd
    const vd half = _mm512_or_pd(_mm512_set1_pd(0.5), sign);
    return _mm512_maskz_roundscale_pd(0xFF, _mm512_add_pd(x, half),
                                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static void store_torus(uint32_t* p, vd x) {
    // DQ's direct double->int64 conversion (truncating; x is integral, so
    // exact), then vpmovqd narrows mod 2^32 -- the torus wrap.
    const __m512i t = _mm512_cvttpd_epi64(x);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_maskz_cvtepi64_epi32(0xFF, t));
  }
  /// Forward leaf (see Avx2::dif_leaves): one 8-slot block is one vector
  /// per plane. Per block: [t0 | t2 | t1 | t3] from the slots four apart,
  /// the four butterfly outputs, the twiddles on lanes 2-7, the pairs.
  static void dif_leaves(const double* tw, int seg, double* re, double* im,
                         int m) {
    const vd wr = leaf_twiddle(tw, seg), wi = leaf_twiddle(tw + seg, seg);
    for (int b = 0; b < m; b += 8) {
      const vd ur = half_butterfly(load(re + b));
      const vd ui = half_butterfly(load(im + b));
      // [t0 | t1 | t0 | t1], and [t2 | t3 | t2 | t3] with t3 from the other
      // plane: the re lanes then read [t2.re | t3.im], the im lanes
      // [t2.im | t3.re].
      const vd pr = spread(ur);
      const vd pi = spread(ui);
      const vd qr = cross(ur, ui);
      const vd qi = cross(ui, ur);
      // [t0 + t2 | t1 + i*t3 | t0 - t2 | t1 - i*t3]
      const vd yr = _mm512_mask_sub_pd(add(pr, qr), 0x3C, pr, qr);
      const vd yi = _mm512_mask_sub_pd(add(pi, qi), 0xF0, pi, qi);
      // Twiddles on lanes 2-7; lanes 0-1 pass through.
      const vd zr = _mm512_mask_fmsub_pd(yr, 0xFC, wr, mul(yi, wi));
      const vd zi = _mm512_mask_blend_pd(0xFC, yi, fmadd(yr, wi, mul(yi, wr)));
      store(re + b, pairs(zr));
      store(im + b, pairs(zi));
    }
  }
  /// Inverse leaf, the mirror image: per block, the pairs, the twiddles
  /// (conjugated table `tw`), [s0 | s2 | s1 | s3], the four outputs.
  static void dit_leaves(const double* tw, int seg, const double* sre,
                         const double* sim, double* wre, double* wim, int m) {
    const vd wr = leaf_twiddle(tw, seg), wi = leaf_twiddle(tw + seg, seg);
    for (int b = 0; b < m; b += 8) {
      const vd xr = pairs(load(sre + b)), xi = pairs(load(sim + b));
      const vd ar = _mm512_mask_fmsub_pd(xr, 0xFC, wr, mul(xi, wi));
      const vd ai = _mm512_mask_blend_pd(0xFC, xi, fmadd(xr, wi, mul(xi, wr)));
      const vd ur = half_butterfly(ar), ui = half_butterfly(ai);
      const vd pr = spread(ur);
      const vd pi = spread(ui);
      const vd qr = cross(ur, ui);
      const vd qi = cross(ui, ur);
      // [s0 + s2 | s1 - i*s3 | s0 - s2 | s1 + i*s3]
      store(wre + b, _mm512_mask_sub_pd(add(pr, qr), 0xF0, pr, qr));
      store(wim + b, _mm512_mask_sub_pd(add(pi, qi), 0x3C, pi, qi));
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 16;
  using vu = __m512i;
  static vu load_u32(const uint32_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store_u32(uint32_t* p, vu v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static vu set1_u32(uint32_t x) {
    return _mm512_set1_epi32(static_cast<int32_t>(x));
  }
  static vu add_u32(vu a, vu b) { return _mm512_add_epi32(a, b); }
  static vu sub_u32(vu a, vu b) { return _mm512_sub_epi32(a, b); }
  static vu and_u32(vu a, vu b) { return _mm512_and_si512(a, b); }
  static vu srl_u32(vu a, int count) {
    return _mm512_maskz_srl_epi32(0xFFFF, a, _mm_cvtsi32_si128(count));
  }
  static vu select_nz_u32(vu cond, vu a, vu b) {
    const __mmask16 nz =
        _mm512_test_epi32_mask(cond, cond); // lane != 0
    return _mm512_mask_blend_epi32(nz, b, a);
  }

 private:
  // Leaf lane patterns, over vectors of four two-lane quarters. The
  // one-source permutes use their all-lanes masked forms with x as the
  // source: the unmasked intrinsics pass _mm512_undefined_pd and trip GCC's
  // -Wmaybe-uninitialized, as in pairs().
  /// [x0 | x2 | x0 | x2] from x = [x0 | x1 | x2 | x3].
  static vd spread(vd x) {
    return _mm512_mask_permutexvar_pd(
        x, 0xFF, _mm512_setr_epi64(0, 1, 4, 5, 0, 1, 4, 5), x);
  }
  /// [x1 | y3 | x1 | y3] from x = [x0 | x1 | x2 | x3] and y likewise.
  static vd cross(vd x, vd y) {
    return _mm512_permutex2var_pd(
        x, _mm512_setr_epi64(2, 3, 14, 15, 2, 3, 14, 15), y);
  }
  /// [unused | w1 | w2 | w3] from one plane's three lanes-0-1 pairs, where
  /// `w` points at the w1 plane and each w_r plane is 2*seg further on.
  static vd leaf_twiddle(const double* w, int seg) {
    vd v = _mm512_setzero_pd();
    v = _mm512_insertf64x2(v, _mm_loadu_pd(w), 1);
    v = _mm512_insertf64x2(v, _mm_loadu_pd(w + 2 * seg), 2);
    return _mm512_insertf64x2(v, _mm_loadu_pd(w + 4 * seg), 3);
  }
  /// [x0 + x4, .., x3 + x7, x0 - x4, .., x3 - x7]: lanes +- the lanes four
  /// away, the first radix-2 level of a size-8 radix-4 butterfly pair.
  static vd half_butterfly(vd x) {
    const vd s = _mm512_mask_shuffle_f64x2(x, 0xFF, x, x, 0x4E); // swap halves
    return _mm512_mask_sub_pd(_mm512_add_pd(x, s), 0xF0, s, x);
  }
  /// (a, b) -> (a + b, a - b) on all four adjacent pairs of x.
  static vd pairs(vd x) {
    // Pair swap via shuffle_pd (GCC's _mm512_permute_pd goes through
    // _mm512_undefined_pd and trips -Wmaybe-uninitialized).
    const vd y = _mm512_shuffle_pd(x, x, 0x55); // b0 a0 b1 a1 ...
    // even lanes: x=a, y=b -> a+b; odd lanes: x=b, y=a -> y-x = a-b.
    return _mm512_mask_sub_pd(_mm512_add_pd(x, y), 0xAA, y, x);
  }
};
#endif // __AVX512F__ && __AVX512DQ__

} // namespace matcha::simd
