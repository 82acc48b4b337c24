#include "fft/lift_fft.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "common/bits.h"

namespace matcha {

namespace {
/// Rounded dyadic multiply: round(num * v / 2^shift). 128-bit intermediate;
/// hardware realizes this as a CSD shift-add network on 64-bit registers.
inline int64_t dyadic_mul(int64_t num, int64_t v, int shift) {
  const int128 p = static_cast<int128>(num) * v + (int128{1} << (shift - 1));
  return static_cast<int64_t>(p >> shift);
}

inline bool is_identity(const LiftRotation& r) {
  return r.quadrant == 0 && r.c_num == 0 && r.s_num == 0;
}
} // namespace

LiftFftEngine::LiftFftEngine(int n_ring, int twiddle_bits)
    : n_(n_ring), m_(n_ring / 2), log2m_(ilog2(static_cast<uint64_t>(n_ring / 2))),
      tables_(make_lift_tables(n_ring, twiddle_bits)) {
  assert(is_pow2(static_cast<uint64_t>(n_ring)) && n_ring >= 4);
}

void LiftFftEngine::apply_rotation(int64_t& x, int64_t& y, const LiftRotation& r) const {
  // Residual rotation by phi (three lifting steps) ...
  if (r.c_num != 0 || r.s_num != 0) {
    x += dyadic_mul(r.c_num, y, r.shift);
    y += dyadic_mul(r.s_num, x, r.shift);
    x += dyadic_mul(r.c_num, y, r.shift);
    counters_.lift_steps += 3;
  }
  // ... then the exact quadrant flip (multiply by i^quadrant).
  switch (r.quadrant & 3) {
    case 0: break;
    case 1: { const int64_t t = x; x = -y; y = t; break; }
    case 2: x = -x; y = -y; break;
    case 3: { const int64_t t = x; x = y; y = -t; break; }
  }
}

void LiftFftEngine::apply_rotation_inverse(int64_t& x, int64_t& y,
                                           const LiftRotation& r) const {
  switch (r.quadrant & 3) {
    case 0: break;
    case 1: { const int64_t t = x; x = y; y = -t; break; }
    case 2: x = -x; y = -y; break;
    case 3: { const int64_t t = x; x = -y; y = t; break; }
  }
  if (r.c_num != 0 || r.s_num != 0) {
    x -= dyadic_mul(r.c_num, y, r.shift);
    y -= dyadic_mul(r.s_num, x, r.shift);
    x -= dyadic_mul(r.c_num, y, r.shift);
    counters_.lift_steps += 3;
  }
}

void LiftFftEngine::bit_reverse(int64_t* re, int64_t* im) const {
  for (int i = 1, j = 0; i < m_; ++i) {
    int bit = m_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
      ++counters_.bitrev_swaps;
    }
  }
}

void LiftFftEngine::dft(int64_t* re, int64_t* im, bool inverse) const {
  const auto& stages = inverse ? tables_.stage_rot_inv : tables_.stage_rot;
  bit_reverse(re, im);
  for (int s = 0; s < log2m_; ++s) {
    const int half = 1 << s;
    for (int blk = 0; blk < m_; blk += 2 * half) {
      for (int j = 0; j < half; ++j) {
        const LiftRotation& rot = stages[s][j];
        const int a = blk + j;
        const int b = a + half;
        int64_t br = re[b], bi = im[b];
        if (!is_identity(rot)) apply_rotation(br, bi, rot);
        re[b] = re[a] - br;
        im[b] = im[a] - bi;
        re[a] += br;
        im[a] += bi;
        counters_.adds += 4;
      }
    }
  }
}

void LiftFftEngine::to_spectral_int(const IntPolynomial& p, Spectral& out) const {
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  assert(p.size() == n_);
  out.re.resize(m_);
  out.im.resize(m_);
  for (int j = 0; j < m_; ++j) {
    int64_t x = static_cast<int64_t>(p.coeffs[j]) << kDigitPreShift;
    int64_t y = static_cast<int64_t>(p.coeffs[j + m_]) << kDigitPreShift;
    if (j != 0) apply_rotation(x, y, tables_.twist_fwd[j]);
    out.re[j] = x;
    out.im[j] = y;
  }
  dft(out.re.data(), out.im.data(), /*inverse=*/false);
}

void LiftFftEngine::to_spectral_torus(const TorusPolynomial& p, Spectral& out) const {
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  assert(p.size() == n_);
  out.re.resize(m_);
  out.im.resize(m_);
  for (int j = 0; j < m_; ++j) {
    int64_t x = static_cast<int64_t>(static_cast<int32_t>(p.coeffs[j])) << kTorusPreShift;
    int64_t y = static_cast<int64_t>(static_cast<int32_t>(p.coeffs[j + m_])) << kTorusPreShift;
    if (j != 0) apply_rotation(x, y, tables_.twist_fwd[j]);
    out.re[j] = x;
    out.im[j] = y;
  }
  dft(out.re.data(), out.im.data(), /*inverse=*/false);
}

void LiftFftEngine::from_spectral_torus(const Spectral& s, TorusPolynomial& out) const {
  ScopedTimer t(counters_.from_spectral_ns, counters_.from_spectral_calls);
  assert(s.size() == m_);
  out.coeffs.resize(n_);
  std::vector<int64_t> re(s.re), im(s.im);
  dft(re.data(), im.data(), /*inverse=*/true);
  // Unnormalized inverse leaves a factor M = N/2; undo it and the pre-shift.
  const int e = log2m_ + kTorusPreShift;
  const int64_t half = int64_t{1} << (e - 1);
  for (int j = 0; j < m_; ++j) {
    int64_t x = re[j], y = im[j];
    if (j != 0) apply_rotation(x, y, tables_.twist_inv[j]);
    out.coeffs[j] = static_cast<Torus32>((x + half) >> e);
    out.coeffs[j + m_] = static_cast<Torus32>((y + half) >> e);
  }
}

void LiftFftEngine::mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const {
  assert(acc.size() == m_ && a.size() == m_ && b.size() == m_);
  for (int k = 0; k < m_; ++k) {
    acc.re[k] += static_cast<int128>(a.re[k]) * b.re[k] -
                 static_cast<int128>(a.im[k]) * b.im[k];
    acc.im[k] += static_cast<int128>(a.re[k]) * b.im[k] +
                 static_cast<int128>(a.im[k]) * b.re[k];
  }
}

void LiftFftEngine::from_spectral_acc(const SpectralAcc& acc, TorusPolynomial& out) const {
  ScopedTimer t(counters_.from_spectral_ns, counters_.from_spectral_calls);
  assert(acc.size() == m_);
  out.coeffs.resize(n_);
  std::vector<int64_t> re(m_), im(m_);
  const int128 mac_half = int128{1} << (kMacShift - 1);
  for (int k = 0; k < m_; ++k) {
    re[k] = static_cast<int64_t>((acc.re[k] + mac_half) >> kMacShift);
    im[k] = static_cast<int64_t>((acc.im[k] + mac_half) >> kMacShift);
  }
  dft(re.data(), im.data(), /*inverse=*/true);
  // Total exponent: unnormalized inverse (x M) and the two pre-shifts
  // upstream, minus the MAC shift already applied.
  const int e = log2m_ + kDigitPreShift + kTorusPreShift - kMacShift;
  for (int j = 0; j < m_; ++j) {
    int64_t x = re[j], y = im[j];
    if (j != 0) apply_rotation(x, y, tables_.twist_inv[j]);
    Torus32 tx, ty;
    if (e >= 0) {
      const int64_t half = (e > 0) ? (int64_t{1} << (e - 1)) : 0;
      tx = static_cast<Torus32>((x + half) >> e);
      ty = static_cast<Torus32>((y + half) >> e);
    } else {
      tx = static_cast<Torus32>(static_cast<uint64_t>(x) << -e);
      ty = static_cast<Torus32>(static_cast<uint64_t>(y) << -e);
    }
    out.coeffs[j] = tx;
    out.coeffs[j + m_] = ty;
  }
}

void LiftFftEngine::rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const {
  assert(dst.size() == m_ && src.size() == m_);
  // Factor (X^{-c} - 1)(omega_k) = exp(-i*pi*(4k+1)*c/N) - 1, quantized to
  // kRotFracBits fixed point per spectral point (TGSW-cluster multipliers).
  const double pi = std::numbers::pi;
  const double base = -pi * static_cast<double>(c % (2LL * n_)) / n_;
  std::complex<double> f{std::cos(base), std::sin(base)};
  const std::complex<double> step{std::cos(4.0 * base), std::sin(4.0 * base)};
  const int64_t round_half = int64_t{1} << (kRotFracBits - 1);
  for (int k = 0; k < m_; ++k) {
    const int64_t fr = static_cast<int64_t>(std::llround((f.real() - 1.0) * (1LL << kRotFracBits)));
    const int64_t fi = static_cast<int64_t>(std::llround(f.imag() * (1LL << kRotFracBits)));
    const int128 pr = static_cast<int128>(fr) * src.re[k] - static_cast<int128>(fi) * src.im[k];
    const int128 pi128 = static_cast<int128>(fr) * src.im[k] + static_cast<int128>(fi) * src.re[k];
    dst.re[k] += static_cast<int64_t>((pr + round_half) >> kRotFracBits);
    dst.im[k] += static_cast<int64_t>((pi128 + round_half) >> kRotFracBits);
    f *= step;
  }
}

void LiftFftEngine::add_constant(Spectral& dst, Torus32 g) const {
  const int64_t gi = static_cast<int64_t>(static_cast<int32_t>(g)) << kTorusPreShift;
  for (int k = 0; k < m_; ++k) dst.re[k] += gi;
}

} // namespace matcha
