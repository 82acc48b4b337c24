// Generic planar-kernel bodies, templated over a fft/simd.h policy.
//
// Included by the per-ISA translation units only
// (spectral_kernels{,_avx2,_avx512}.cpp); never include this from
// headers. Each elementwise loop runs a full-width vector body followed by a
// simd::Scalar tail that reuses the exact same butterfly template at W = 1.
// A plan with a pair stage and at least two radix-4 stages (has_leaf: m =
// 2*4^t, N >= 64) ends in the leaf instead of a q = 2 stage and a pair pass,
// so on every tier none of its butterflies reaches a tail; the tails serve
// the q = 1 stage of m = 4^t plans (and q = 4 on AVX-512) and N = 16's
// twist stage.
//
// Index-heavy kernels that need integer lanes (rot_scale_add's table
// gathers, decompose's shift/mask pipeline) get portable scalar bodies here;
// the AVX2 TU overrides them with hand-vectorized versions.
#pragma once

#include <cassert>
#include <cstdint>

#include "fft/simd.h"
#include "fft/spectral_kernels.h"

namespace matcha::detail {

/// Radix-4 DIF butterfly (forward, sign +1) at slot `base + j`, twiddles
/// from `st`. In-place on re/im.
template <class P>
inline void dif_butterfly(const PlanStage& st, double* __restrict re,
                          double* __restrict im, int base, int j) {
  using v = typename P::vd;
  const int q = st.q;
  double* r0 = re + base + j;
  double* i0 = im + base + j;
  const v ar = P::load(r0), ai = P::load(i0);
  const v br = P::load(r0 + q), bi = P::load(i0 + q);
  const v cr = P::load(r0 + 2 * q), ci = P::load(i0 + 2 * q);
  const v dr = P::load(r0 + 3 * q), di = P::load(i0 + 3 * q);

  const v t0r = P::add(ar, cr), t0i = P::add(ai, ci);
  const v t1r = P::sub(ar, cr), t1i = P::sub(ai, ci);
  const v t2r = P::add(br, dr), t2i = P::add(bi, di);
  const v t3r = P::sub(br, dr), t3i = P::sub(bi, di);

  P::store(r0, P::add(t0r, t2r));
  P::store(i0, P::add(t0i, t2i));

  const v b1r = P::sub(t1r, t3i), b1i = P::add(t1i, t3r); // t1 + i*t3
  const v b2r = P::sub(t0r, t2r), b2i = P::sub(t0i, t2i);
  const v b3r = P::add(t1r, t3i), b3i = P::sub(t1i, t3r); // t1 - i*t3

  const v w1r = P::load(st.w1r() + j), w1i = P::load(st.w1i() + j);
  const v w2r = P::load(st.w2r() + j), w2i = P::load(st.w2i() + j);
  const v w3r = P::load(st.w3r() + j), w3i = P::load(st.w3i() + j);
  P::store(r0 + q, P::fmsub(b1r, w1r, P::mul(b1i, w1i)));
  P::store(i0 + q, P::fmadd(b1r, w1i, P::mul(b1i, w1r)));
  P::store(r0 + 2 * q, P::fmsub(b2r, w2r, P::mul(b2i, w2i)));
  P::store(i0 + 2 * q, P::fmadd(b2r, w2i, P::mul(b2i, w2r)));
  P::store(r0 + 3 * q, P::fmsub(b3r, w3r, P::mul(b3i, w3i)));
  P::store(i0 + 3 * q, P::fmadd(b3r, w3i, P::mul(b3i, w3r)));
}

/// First forward stage (size m): the negacyclic twist is fused into the
/// input loads, z[t] = (in[t] + i*in[t+m]) * twist[t].
template <class P>
inline void dif_butterfly_twist(const NegacyclicPlan& plan,
                                const PlanStage& st,
                                const int32_t* __restrict in,
                                double* __restrict re, double* __restrict im,
                                int j) {
  using v = typename P::vd;
  const int q = st.q;
  const int m = plan.m;
  v xr[4], xi[4];
  for (int r = 0; r < 4; ++r) {
    const int t = j + r * q;
    const v lo = P::load_i32(in + t);
    const v hi = P::load_i32(in + t + m);
    const v twr = P::load(plan.twist_re.data() + t);
    const v twi = P::load(plan.twist_im.data() + t);
    xr[r] = P::fmsub(lo, twr, P::mul(hi, twi));
    xi[r] = P::fmadd(lo, twi, P::mul(hi, twr));
  }
  const v t0r = P::add(xr[0], xr[2]), t0i = P::add(xi[0], xi[2]);
  const v t1r = P::sub(xr[0], xr[2]), t1i = P::sub(xi[0], xi[2]);
  const v t2r = P::add(xr[1], xr[3]), t2i = P::add(xi[1], xi[3]);
  const v t3r = P::sub(xr[1], xr[3]), t3i = P::sub(xi[1], xi[3]);

  P::store(re + j, P::add(t0r, t2r));
  P::store(im + j, P::add(t0i, t2i));

  const v b1r = P::sub(t1r, t3i), b1i = P::add(t1i, t3r);
  const v b2r = P::sub(t0r, t2r), b2i = P::sub(t0i, t2i);
  const v b3r = P::add(t1r, t3i), b3i = P::sub(t1i, t3r);

  const v w1r = P::load(st.w1r() + j), w1i = P::load(st.w1i() + j);
  const v w2r = P::load(st.w2r() + j), w2i = P::load(st.w2i() + j);
  const v w3r = P::load(st.w3r() + j), w3i = P::load(st.w3i() + j);
  P::store(re + j + q, P::fmsub(b1r, w1r, P::mul(b1i, w1i)));
  P::store(im + j + q, P::fmadd(b1r, w1i, P::mul(b1i, w1r)));
  P::store(re + j + 2 * q, P::fmsub(b2r, w2r, P::mul(b2i, w2i)));
  P::store(im + j + 2 * q, P::fmadd(b2r, w2i, P::mul(b2i, w2r)));
  P::store(re + j + 3 * q, P::fmsub(b3r, w3r, P::mul(b3i, w3i)));
  P::store(im + j + 3 * q, P::fmadd(b3r, w3i, P::mul(b3i, w3r)));
}

/// Radix-4 DIT butterfly (inverse, sign -1; `st` holds conjugated twiddles).
/// Reads inr/ini, writes outr/outi at the same slots (pointers may be equal
/// for the in-place middle stages).
template <class P>
inline void dit_butterfly(const PlanStage& st, const double* inr,
                          const double* ini, double* outr, double* outi,
                          int base, int j) {
  using v = typename P::vd;
  const int q = st.q;
  const double* r0 = inr + base + j;
  const double* i0 = ini + base + j;
  const v a0r = P::load(r0), a0i = P::load(i0);

  const v w1r = P::load(st.w1r() + j), w1i = P::load(st.w1i() + j);
  const v w2r = P::load(st.w2r() + j), w2i = P::load(st.w2i() + j);
  const v w3r = P::load(st.w3r() + j), w3i = P::load(st.w3i() + j);
  const v x1r = P::load(r0 + q), x1i = P::load(i0 + q);
  const v x2r = P::load(r0 + 2 * q), x2i = P::load(i0 + 2 * q);
  const v x3r = P::load(r0 + 3 * q), x3i = P::load(i0 + 3 * q);
  const v a1r = P::fmsub(x1r, w1r, P::mul(x1i, w1i));
  const v a1i = P::fmadd(x1r, w1i, P::mul(x1i, w1r));
  const v a2r = P::fmsub(x2r, w2r, P::mul(x2i, w2i));
  const v a2i = P::fmadd(x2r, w2i, P::mul(x2i, w2r));
  const v a3r = P::fmsub(x3r, w3r, P::mul(x3i, w3i));
  const v a3i = P::fmadd(x3r, w3i, P::mul(x3i, w3r));

  const v s0r = P::add(a0r, a2r), s0i = P::add(a0i, a2i);
  const v s1r = P::sub(a0r, a2r), s1i = P::sub(a0i, a2i);
  const v s2r = P::add(a1r, a3r), s2i = P::add(a1i, a3i);
  const v s3r = P::sub(a1r, a3r), s3i = P::sub(a1i, a3i);

  double* o0 = outr + base + j;
  double* oi0 = outi + base + j;
  P::store(o0, P::add(s0r, s2r));
  P::store(oi0, P::add(s0i, s2i));
  P::store(o0 + q, P::add(s1r, s3i));      // s1 - i*s3
  P::store(oi0 + q, P::sub(s1i, s3r));
  P::store(o0 + 2 * q, P::sub(s0r, s2r));
  P::store(oi0 + 2 * q, P::sub(s0i, s2i));
  P::store(o0 + 3 * q, P::sub(s1r, s3i));  // s1 + i*s3
  P::store(oi0 + 3 * q, P::add(s1i, s3r));
}

/// Last inverse stage (size m): the four outputs are untwisted, scaled by
/// 1/m (folded into plan.itwist), rounded half-away-from-zero, and stored as
/// wrapped Torus32 coefficients out[t] (real) / out[t+m] (imag).
template <class P>
inline void dit_last_butterfly(const NegacyclicPlan& plan,
                               const PlanStage& st,
                               const double* __restrict inr,
                               const double* __restrict ini,
                               uint32_t* __restrict out, int j) {
  using v = typename P::vd;
  const int q = st.q;
  const int m = plan.m;
  const v a0r = P::load(inr + j), a0i = P::load(ini + j);

  const v w1r = P::load(st.w1r() + j), w1i = P::load(st.w1i() + j);
  const v w2r = P::load(st.w2r() + j), w2i = P::load(st.w2i() + j);
  const v w3r = P::load(st.w3r() + j), w3i = P::load(st.w3i() + j);
  const v x1r = P::load(inr + j + q), x1i = P::load(ini + j + q);
  const v x2r = P::load(inr + j + 2 * q), x2i = P::load(ini + j + 2 * q);
  const v x3r = P::load(inr + j + 3 * q), x3i = P::load(ini + j + 3 * q);
  const v a1r = P::fmsub(x1r, w1r, P::mul(x1i, w1i));
  const v a1i = P::fmadd(x1r, w1i, P::mul(x1i, w1r));
  const v a2r = P::fmsub(x2r, w2r, P::mul(x2i, w2i));
  const v a2i = P::fmadd(x2r, w2i, P::mul(x2i, w2r));
  const v a3r = P::fmsub(x3r, w3r, P::mul(x3i, w3i));
  const v a3i = P::fmadd(x3r, w3i, P::mul(x3i, w3r));

  const v s0r = P::add(a0r, a2r), s0i = P::add(a0i, a2i);
  const v s1r = P::sub(a0r, a2r), s1i = P::sub(a0i, a2i);
  const v s2r = P::add(a1r, a3r), s2i = P::add(a1i, a3i);
  const v s3r = P::sub(a1r, a3r), s3i = P::sub(a1i, a3i);

  const v pr[4] = {P::add(s0r, s2r), P::add(s1r, s3i), P::sub(s0r, s2r),
                   P::sub(s1r, s3i)};
  const v pi[4] = {P::add(s0i, s2i), P::sub(s1i, s3r), P::sub(s0i, s2i),
                   P::add(s1i, s3r)};
  for (int r = 0; r < 4; ++r) {
    const int t = j + r * q;
    const v twr = P::load(plan.itwist_re.data() + t);
    const v twi = P::load(plan.itwist_im.data() + t);
    const v outr = P::fmsub(pr[r], twr, P::mul(pi[r], twi));
    const v outi = P::fmadd(pr[r], twi, P::mul(pi[r], twr));
    P::store_torus(out + t, P::round_away(outr));
    P::store_torus(out + t + m, P::round_away(outi));
  }
}

/// Plans whose transform ends in the leaf: a pair stage (m = 2*4^t) after
/// at least two radix-4 stages (N >= 64). N = 16's one radix-4 stage is
/// also its twist stage, so it keeps a separate pair pass.
inline bool has_leaf(const NegacyclicPlan& plan) {
  return plan.pair_stage && plan.fwd.size() >= 2;
}

/// Forward leaf: the last radix-4 stage (size 8, q = 2, twiddles `st`) and
/// the radix-2 pair stage, fused on each 8-slot block of the m-slot planes.
/// Policies whose vectors span half a block or more run a block in
/// registers (fft/simd.h); the scalar policy runs its q = 2 butterflies and
/// then its pairs on the block.
template <class P>
inline void dif_leaves(const PlanStage& st, double* __restrict re,
                       double* __restrict im, int m) {
  if constexpr (P::W >= 4) {
    P::dif_leaves(st.tw.data(), st.seg, re, im, m);
  } else {
    for (int base = 0; base < m; base += 8) {
#pragma GCC ivdep
      for (int j = 0; j < st.q; j += P::W) dif_butterfly<P>(st, re, im, base, j);
      P::butterfly_pairs(re + base, re + base, 4);
      P::butterfly_pairs(im + base, im + base, 4);
    }
  }
}

/// Inverse leaf, the mirror image: per block, the pair stage and then the
/// first radix-4 DIT stage (size 8, conjugated twiddles `st`). Reads
/// sre/sim, writes wre/wim.
template <class P>
inline void dit_leaves(const PlanStage& st, const double* sre,
                       const double* sim, double* wre, double* wim, int m) {
  if constexpr (P::W >= 4) {
    P::dit_leaves(st.tw.data(), st.seg, sre, sim, wre, wim, m);
  } else {
    for (int base = 0; base < m; base += 8) {
      P::butterfly_pairs(sre + base, wre + base, 4);
      P::butterfly_pairs(sim + base, wim + base, 4);
#pragma GCC ivdep
      for (int j = 0; j < st.q; j += P::W) {
        dit_butterfly<P>(st, wre, wim, wre, wim, base, j);
      }
    }
  }
}

template <class V>
struct PlanarKernels {
  // The #pragma GCC ivdep below assert what the butterfly index algebra
  // guarantees: iterations j != j' (both < q) touch disjoint slots of every
  // stream, so the loops carry no dependence. With them (plus the
  // __restrict butterfly parameters) the simd::Scalar instantiation
  // auto-vectorizes to the baseline ISA; without them the alias-versioning
  // budget overflows and the scalar tier stays serial.
  //
  // The asserts in the scalar tails check, in Debug builds, that no
  // butterfly of a leaf plan runs through simd::Scalar on any tier.
  static void forward(const NegacyclicPlan& plan, const int32_t* __restrict in,
                      double* __restrict re, double* __restrict im) {
    const int m = plan.m;
    const bool leaf = has_leaf(plan);
    const PlanStage& st0 = plan.fwd.front();
    int j = 0;
#pragma GCC ivdep
    for (; j + V::W <= st0.q; j += V::W) {
      dif_butterfly_twist<V>(plan, st0, in, re, im, j);
    }
    for (; j < st0.q; ++j) {
      assert(!leaf);
      dif_butterfly_twist<simd::Scalar>(plan, st0, in, re, im, j);
    }
    const size_t radix4_end = plan.fwd.size() - (leaf ? 1 : 0);
    for (size_t s = 1; s < radix4_end; ++s) {
      const PlanStage& st = plan.fwd[s];
      for (int base = 0; base < m; base += st.size) {
        int k = 0;
#pragma GCC ivdep
        for (; k + V::W <= st.q; k += V::W) dif_butterfly<V>(st, re, im, base, k);
        for (; k < st.q; ++k) {
          assert(!leaf);
          dif_butterfly<simd::Scalar>(st, re, im, base, k);
        }
      }
    }
    if (leaf) {
      dif_leaves<V>(plan.fwd.back(), re, im, m);
    } else if (plan.pair_stage) { // N = 16
      simd::Scalar::butterfly_pairs(re, re, m / 2);
      simd::Scalar::butterfly_pairs(im, im, m / 2);
    }
  }

  static void inverse_torus(const NegacyclicPlan& plan, const double* sre,
                            const double* sim, double* wre, double* wim,
                            uint32_t* out) {
    const int m = plan.m;
    const bool leaf = has_leaf(plan);
    const double* cr = sre;
    const double* ci = sim;
    size_t s = 0;
    if (plan.pair_stage) {
      if (leaf) {
        dit_leaves<V>(plan.inv.front(), sre, sim, wre, wim, m);
        s = 1;
      } else { // N = 16
        simd::Scalar::butterfly_pairs(sre, wre, m / 2);
        simd::Scalar::butterfly_pairs(sim, wim, m / 2);
      }
      cr = wre;
      ci = wim;
    }
    for (; s + 1 < plan.inv.size(); ++s) {
      const PlanStage& st = plan.inv[s];
      for (int base = 0; base < m; base += st.size) {
        int k = 0;
        // Same disjoint-slot argument as forward (dit_butterfly keeps plain
        // pointers because the middle stages run it in-place, cr == wre).
#pragma GCC ivdep
        for (; k + V::W <= st.q; k += V::W) {
          dit_butterfly<V>(st, cr, ci, wre, wim, base, k);
        }
        for (; k < st.q; ++k) {
          assert(!leaf);
          dit_butterfly<simd::Scalar>(st, cr, ci, wre, wim, base, k);
        }
      }
      cr = wre;
      ci = wim;
    }
    const PlanStage& last = plan.inv.back();
    int j = 0;
#pragma GCC ivdep
    for (; j + V::W <= last.q; j += V::W) {
      dit_last_butterfly<V>(plan, last, cr, ci, out, j);
    }
    for (; j < last.q; ++j) {
      assert(!leaf);
      dit_last_butterfly<simd::Scalar>(plan, last, cr, ci, out, j);
    }
  }

  static void mac(int m, const double* ar, const double* ai, const double* br,
                  const double* bi, double* accr, double* acci) {
    using v = typename V::vd;
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      const v xr = V::load(ar + k), xi = V::load(ai + k);
      const v yr = V::load(br + k), yi = V::load(bi + k);
      const v rr = V::fmsub(xr, yr, V::mul(xi, yi));
      const v ri = V::fmadd(xr, yi, V::mul(xi, yr));
      V::store(accr + k, V::add(V::load(accr + k), rr));
      V::store(acci + k, V::add(V::load(acci + k), ri));
    }
    for (; k < m; ++k) {
      accr[k] += ar[k] * br[k] - ai[k] * bi[k];
      acci[k] += ar[k] * bi[k] + ai[k] * br[k];
    }
  }

  static void add_assign(int m, double* dr, double* di, const double* sr,
                         const double* si) {
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      V::store(dr + k, V::add(V::load(dr + k), V::load(sr + k)));
      V::store(di + k, V::add(V::load(di + k), V::load(si + k)));
    }
    for (; k < m; ++k) {
      dr[k] += sr[k];
      di[k] += si[k];
    }
  }

  static void scale_add(int m, double* dr, double* di, const double* sr,
                        const double* si, double c) {
    using v = typename V::vd;
    const v vc = V::set1(c);
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      V::store(dr + k, V::fmadd(vc, V::load(sr + k), V::load(dr + k)));
      V::store(di + k, V::fmadd(vc, V::load(si + k), V::load(di + k)));
    }
    for (; k < m; ++k) {
      dr[k] += c * sr[k];
      di[k] += c * si[k];
    }
  }

  /// Fused bundle-MAC hot loop: the shared left operand s is loaded once per
  /// slot and multiply-accumulated against both column streams. Ten
  /// contiguous streams, zero gathers. The streams are distinct
  /// workspace/key planes by contract; __restrict states that, because with
  /// ten pointers the compiler's runtime alias-versioning budget overflows
  /// and the scalar instantiation would otherwise never auto-vectorize.
  static void mac2(int m, const double* __restrict sr,
                   const double* __restrict si, const double* __restrict b0r,
                   const double* __restrict b0i, const double* __restrict b1r,
                   const double* __restrict b1i, double* __restrict a0r,
                   double* __restrict a0i, double* __restrict a1r,
                   double* __restrict a1i) {
    using v = typename V::vd;
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      const v xr = V::load(sr + k), xi = V::load(si + k);
      const v c0r = V::load(b0r + k), c0i = V::load(b0i + k);
      const v r0 = V::fmsub(xr, c0r, V::mul(xi, c0i));
      const v i0 = V::fmadd(xr, c0i, V::mul(xi, c0r));
      V::store(a0r + k, V::add(V::load(a0r + k), r0));
      V::store(a0i + k, V::add(V::load(a0i + k), i0));
      const v c1r = V::load(b1r + k), c1i = V::load(b1i + k);
      const v r1 = V::fmsub(xr, c1r, V::mul(xi, c1i));
      const v i1 = V::fmadd(xr, c1i, V::mul(xi, c1r));
      V::store(a1r + k, V::add(V::load(a1r + k), r1));
      V::store(a1i + k, V::add(V::load(a1i + k), i1));
    }
    for (; k < m; ++k) {
      a0r[k] += sr[k] * b0r[k] - si[k] * b0i[k];
      a0i[k] += sr[k] * b0i[k] + si[k] * b0r[k];
      a1r[k] += sr[k] * b1r[k] - si[k] * b1i[k];
      a1i[k] += sr[k] * b1i[k] + si[k] * b1r[k];
    }
  }

  /// mac2_rows body for a compile-time chunk of RC <= 3 rows: the row loop
  /// fully unrolls, so the k-loop body is straight-line -- the scalar policy
  /// then auto-vectorizes it like any other planar kernel, and the wide
  /// policies get a branch-free schedule the out-of-order core overlaps
  /// across k iterations (a runtime-trip inner row loop defeats both). RC is
  /// capped at 3 because each row pins two base pointers (spec row + key
  /// row); with the four output pointers, larger chunks exceed the x86-64
  /// GP register file and the compiler reloads every address from the stack
  /// inside the hot loop. ACC selects set (first chunk) vs accumulate
  /// (subsequent chunks) semantics; the accumulate form loads the prior sum
  /// first, so the per-slot addition order across chunks matches one long
  /// row chain exactly.
  template <int M, int RC, bool ACC>
  static void mac2_rows_block(int m_rt, const double* __restrict spec,
                              const double* __restrict key,
                              double* __restrict a0r, double* __restrict a0i,
                              double* __restrict a1r, double* __restrict a1i) {
    static_assert(RC >= 1 && RC <= 3, "chunk size bounded by GP registers");
    // M > 0 pins the spectral size at compile time (the dispatcher covers
    // the common ring sizes): every intra-row plane offset then becomes a
    // constant displacement off the row's ONE base register instead of a
    // separately-materialized pointer per plane -- 18 live pointers drop to
    // 10 and the compiler stops reloading addresses from the stack in the
    // hot loop. M == 0 is the any-size fallback with runtime offsets.
    const int m = M > 0 ? M : m_rt;
    using v = typename V::vd;
    const size_t ss = 2 * static_cast<size_t>(m); // spec row stride
    const size_t ks = 4 * static_cast<size_t>(m); // key row stride
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      v A0r, A0i, A1r, A1i;
      if (ACC) {
        A0r = V::load(a0r + k);
        A0i = V::load(a0i + k);
        A1r = V::load(a1r + k);
        A1i = V::load(a1i + k);
      }
#pragma GCC unroll 3
      for (int r = 0; r < RC; ++r) {
        const double* s = spec + static_cast<size_t>(r) * ss + k;
        const double* kb = key + static_cast<size_t>(r) * ks + k;
        const v xr = V::load(s), xi = V::load(s + m);
        const v c0r = V::load(kb), c0i = V::load(kb + m);
        const v c1r = V::load(kb + 2 * m), c1i = V::load(kb + 3 * m);
        const v r0v = V::fmsub(xr, c0r, V::mul(xi, c0i));
        const v i0v = V::fmadd(xr, c0i, V::mul(xi, c0r));
        const v r1v = V::fmsub(xr, c1r, V::mul(xi, c1i));
        const v i1v = V::fmadd(xr, c1i, V::mul(xi, c1r));
        A0r = (!ACC && r == 0) ? r0v : V::add(A0r, r0v);
        A0i = (!ACC && r == 0) ? i0v : V::add(A0i, i0v);
        A1r = (!ACC && r == 0) ? r1v : V::add(A1r, r1v);
        A1i = (!ACC && r == 0) ? i1v : V::add(A1i, i1v);
      }
      V::store(a0r + k, A0r);
      V::store(a0i + k, A0i);
      V::store(a1r + k, A1r);
      V::store(a1i + k, A1i);
    }
    for (; k < m; ++k) {
      double x0r = ACC ? a0r[k] : 0.0, x0i = ACC ? a0i[k] : 0.0;
      double x1r = ACC ? a1r[k] : 0.0, x1i = ACC ? a1i[k] : 0.0;
      for (int r = 0; r < RC; ++r) {
        const double* s = spec + static_cast<size_t>(r) * ss + k;
        const double* kb = key + static_cast<size_t>(r) * ks + k;
        x0r += s[0] * kb[0] - s[m] * kb[m];
        x0i += s[0] * kb[m] + s[m] * kb[0];
        x1r += s[0] * kb[2 * m] - s[m] * kb[3 * m];
        x1i += s[0] * kb[3 * m] + s[m] * kb[2 * m];
      }
      a0r[k] = x0r;
      a0i[k] = x0i;
      a1r[k] = x1r;
      a1i[k] = x1i;
    }
  }

  template <int M, bool ACC>
  static void mac2_rows_chunk(int m, int rc, const double* spec,
                              const double* key, double* a0r, double* a0i,
                              double* a1r, double* a1i) {
    switch (rc) {
      case 3:
        return mac2_rows_block<M, 3, ACC>(m, spec, key, a0r, a0i, a1r, a1i);
      case 2:
        return mac2_rows_block<M, 2, ACC>(m, spec, key, a0r, a0i, a1r, a1i);
      default:
        return mac2_rows_block<M, 1, ACC>(m, spec, key, a0r, a0i, a1r, a1i);
    }
  }

  template <int M>
  static void mac2_rows_m(int m, int r0, int rows, const double* spec,
                          const double* key, double* a0r, double* a0i,
                          double* a1r, double* a1i) {
    const double* s = spec + static_cast<size_t>(r0) * 2 * m;
    const double* kb = key + static_cast<size_t>(r0) * 4 * m;
    int left = rows - r0;
    int prev = left > 3 ? 3 : left;
    mac2_rows_chunk<M, false>(m, prev, s, kb, a0r, a0i, a1r, a1i);
    left -= prev;
    while (left > 0) {
      s += static_cast<size_t>(prev) * 2 * m; // advance past the prior chunk
      kb += static_cast<size_t>(prev) * 4 * m;
      const int rc = left > 3 ? 3 : left;
      mac2_rows_chunk<M, true>(m, rc, s, kb, a0r, a0i, a1r, a1i);
      left -= rc;
      prev = rc;
    }
  }

  static void mac2_rows(int m, int r0, int rows, const double* spec,
                        const double* key, double* a0r, double* a0i,
                        double* a1r, double* a1i) {
    // Specialize the common spectral sizes (N = 256/1024/2048 rings) so the
    // block bodies see a compile-time m; anything else takes the generic
    // runtime-m path.
    switch (m) {
      case 128:
        return mac2_rows_m<128>(m, r0, rows, spec, key, a0r, a0i, a1r, a1i);
      case 512:
        return mac2_rows_m<512>(m, r0, rows, spec, key, a0r, a0i, a1r, a1i);
      case 1024:
        return mac2_rows_m<1024>(m, r0, rows, spec, key, a0r, a0i, a1r, a1i);
      default:
        return mac2_rows_m<0>(m, r0, rows, spec, key, a0r, a0i, a1r, a1i);
    }
  }
};

/// Portable rot_scale_add: per slot, two table lookups replace the serial
/// f *= step recurrence (mod 2N is a mask -- N is a power of two).
inline void generic_rot_scale_add(const NegacyclicPlan& plan, double* dr,
                                  double* di, const double* sr,
                                  const double* si, int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  for (int k = 0; k < plan.m; ++k) {
    const uint32_t idx =
        (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    const double fr = plan.rot_re[idx] - 1.0;
    const double fi = plan.rot_im[idx];
    dr[k] += fr * sr[k] - fi * si[k];
    di[k] += fr * si[k] + fi * sr[k];
  }
}

/// Portable rotation-factor materialization: fr/fi receive the pointwise
/// X^{-c} - 1 factor in storage order (same ft1 gathers as rot_scale_add).
/// The fused bundle path calls this once per active key subset, hoisting
/// the table gathers out of the mac2 hot loop -- the factor is
/// identical for all 2l decomposition rows of a subset.
inline void generic_rot_factor(const NegacyclicPlan& plan,
                               double* __restrict fr, double* __restrict fi,
                               int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  for (int k = 0; k < plan.m; ++k) {
    const uint32_t idx =
        (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    fr[k] = plan.rot_re[idx] - 1.0;
    fi[k] = plan.rot_im[idx];
  }
}

/// Portable signed gadget decomposition; one contiguous pass per digit.
inline void generic_decompose(int l, int bg_bits, uint32_t offset, int n,
                              const uint32_t* p, int32_t* const* digits) {
  const uint32_t mask = (1u << bg_bits) - 1;
  const int32_t half = 1 << (bg_bits - 1);
  for (int j = 0; j < l; ++j) {
    const int sh = 32 - (j + 1) * bg_bits;
    int32_t* dj = digits[j];
    for (int i = 0; i < n; ++i) {
      dj[i] = static_cast<int32_t>(((p[i] + offset) >> sh) & mask) - half;
    }
  }
}

// ---------------------------------------------------- keyswitch kernels
// Pure uint32 arithmetic (exact mod 2^32): every policy's lanes compute the
// same bits, so the vector body + scalar tail split never changes results.

/// Streaming row accumulate: dst[k] -= src[k] over n uint32 lanes.
template <class V>
void u32_sub(uint32_t* dst, const uint32_t* src, int n) {
  int k = 0;
  for (; k + V::WU <= n; k += V::WU) {
    V::store_u32(dst + k, V::sub_u32(V::load_u32(dst + k), V::load_u32(src + k)));
  }
  for (; k < n; ++k) dst[k] -= src[k];
}

/// Digit extraction for one input sample, j-major (out[j*n_in + i]) so the
/// batch accumulate walks the SoA key rows and the digit array in lockstep.
template <class V>
void ks_digits(const uint32_t* a, int n_in, int t, int basebit, uint32_t off,
               uint32_t* out) {
  const uint32_t mask = (1u << basebit) - 1;
  const auto voff = V::set1_u32(off);
  const auto vmask = V::set1_u32(mask);
  for (int j = 0; j < t; ++j) {
    const int sh = 32 - (j + 1) * basebit;
    uint32_t* oj = out + static_cast<size_t>(j) * n_in;
    int i = 0;
    for (; i + V::WU <= n_in; i += V::WU) {
      const auto biased = V::add_u32(V::load_u32(a + i), voff);
      V::store_u32(oj + i, V::and_u32(V::srl_u32(biased, sh), vmask));
    }
    for (; i < n_in; ++i) oj[i] = ((a[i] + off) >> sh) & mask;
  }
}

/// Gathered b-plane sum. Scalar body -- the b plane is `rows` words against
/// the a planes' `rows*n_out`, so this is off the roofline; the AVX2/AVX-512
/// TUs override it with masked hardware gathers.
inline uint32_t generic_ks_gather_b(const uint32_t* d, const uint32_t* b_plane,
                                    int rows, int base) {
  const int stride = base - 1;
  uint32_t acc = 0;
  for (int r = 0; r < rows; ++r) {
    const uint32_t v = d[r];
    if (v != 0) acc += b_plane[static_cast<size_t>(r) * stride + (v - 1)];
  }
  return acc;
}

} // namespace matcha::detail
