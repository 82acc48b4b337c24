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

void SimdFftEngine::ensure_sized(Spectral& s) const {
  if (s.size() != m_) {
    s.re.assign(static_cast<size_t>(m_), 0.0);
    s.im.assign(static_cast<size_t>(m_), 0.0);
  }
}

void SimdFftEngine::to_spectral_int(const IntPolynomial& p, Spectral& out) const {
  assert(p.size() == n_);
  ensure_sized(out);
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  kernels_->forward(plan_, p.coeffs.data(), out.re.data(), out.im.data());
}

void SimdFftEngine::to_spectral_torus(const TorusPolynomial& p, Spectral& out) const {
  assert(p.size() == n_);
  ensure_sized(out);
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  // Torus32 -> int32 is a value-preserving reinterpretation mod 2^32; the
  // kernels widen each coefficient as a signed value, matching the double
  // engine's static_cast<int32_t> load.
  kernels_->forward(plan_,
                    reinterpret_cast<const int32_t*>(p.coeffs.data()),
                    out.re.data(), out.im.data());
}

void SimdFftEngine::from_spectral_torus(const Spectral& s, TorusPolynomial& out) const {
  assert(s.size() == m_);
  if (out.size() != n_) out.coeffs.resize(static_cast<size_t>(n_));
  ScopedTimer t(counters_.from_spectral_ns, counters_.from_spectral_calls);
  kernels_->inverse_torus(plan_, s.re.data(), s.im.data(), work_re_.data(),
                          work_im_.data(), out.coeffs.data());
}

void SimdFftEngine::acc_init(SpectralAcc& acc) const {
  ensure_sized(acc);
  acc.clear();
}

void SimdFftEngine::mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const {
  assert(acc.size() == m_ && a.size() == m_ && b.size() == m_);
  kernels_->mac(m_, a.re.data(), a.im.data(), b.re.data(), b.im.data(),
                acc.re.data(), acc.im.data());
}

void SimdFftEngine::rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const {
  assert(dst.size() == m_ && src.size() == m_);
  assert(&dst != &src);
  kernels_->rot_scale_add(plan_, dst.re.data(), dst.im.data(), src.re.data(),
                          src.im.data(), c);
}

void SimdFftEngine::add_constant(Spectral& dst, Torus32 g) const {
  assert(dst.size() == m_);
  const double gd = static_cast<double>(static_cast<int32_t>(g));
  double* dr = dst.re.data();
  for (int k = 0; k < m_; ++k) dr[k] += gd;
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

void external_product(const SimdFftEngine& eng, const GadgetParams& g,
                      const TGswSpectral<SimdFftEngine>& tgsw, TLweSample& acc,
                      ExternalProductWorkspace<SimdFftEngine>& ws,
                      bool a_is_zero) {
  const int l = g.l;
  const int rows = 2 * l;
  const int m = eng.spectral_size();
  assert(ws.l == l && ws.n == eng.ring_n() && ws.m == m);
  assert(tgsw.rows_count() == rows);
  assert(acc.a.size() == eng.ring_n() && acc.b.size() == eng.ring_n());
#ifndef NDEBUG
  if (a_is_zero) {
    for (const Torus32 cc : acc.a.coeffs) assert(cc == 0);
  }
#endif
  const int r0 = a_is_zero ? l : 0;

  // Vectorized gadget decomposition straight into the contiguous digit
  // arena: a's digits occupy planes [0, l), b's planes [l, 2l). A zero
  // acc.a decomposes to all-zero digits, so its planes, transforms, and
  // MACs are skipped outright (EngineCounters::zero_fft_skips).
  int32_t* planes[64]; // l * bg_bits <= 32 bounds l (and 2l) well below this
  assert(rows <= 64);
  for (int r = 0; r < rows; ++r) planes[r] = ws.digit_plane(r);
  const SpectralKernels& k = eng.kernels();
  if (!a_is_zero) {
    k.decompose(l, g.bg_bits, g.rounding_offset(), eng.ring_n(),
                acc.a.coeffs.data(), planes);
  } else {
    eng.counters().zero_fft_skips += l;
  }
  k.decompose(l, g.bg_bits, g.rounding_offset(), eng.ring_n(),
              acc.b.coeffs.data(), planes + l);

  // The live digit forward FFTs back-to-back through the one workspace.
  for (int r = r0; r < rows; ++r) {
    eng.forward_raw(ws.digit_plane(r), ws.spec_re(r), ws.spec_im(r));
  }

  // Spectral-form accumulation across rows.
  ws.acc_a.clear();
  ws.acc_b.clear();
  for (int r = r0; r < rows; ++r) {
    k.mac(m, ws.spec_re(r), ws.spec_im(r), tgsw.rows[r][0].re.data(),
          tgsw.rows[r][0].im.data(), ws.acc_a.re.data(), ws.acc_a.im.data());
    k.mac(m, ws.spec_re(r), ws.spec_im(r), tgsw.rows[r][1].re.data(),
          tgsw.rows[r][1].im.data(), ws.acc_b.re.data(), ws.acc_b.im.data());
  }

  eng.inverse_raw(ws.acc_a.re.data(), ws.acc_a.im.data(), acc.a.coeffs.data());
  eng.inverse_raw(ws.acc_b.re.data(), ws.acc_b.im.data(), acc.b.coeffs.data());
}

} // namespace matcha
