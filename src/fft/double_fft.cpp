#include "fft/double_fft.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "common/bits.h"
#include "fft/tables.h"

namespace matcha {

DoubleFftEngine::DoubleFftEngine(int n_ring, FftFlow flow)
    : n_(n_ring), m_(n_ring / 2), flow_(flow) {
  assert(is_pow2(static_cast<uint64_t>(n_ring)) && n_ring >= 4);
  twist_fwd_ = twist_factors(n_, +1);
  twist_inv_ = twist_factors(n_, -1);
  if (flow_ == FftFlow::kBreadthFirstCooleyTukey) {
    roots_fwd_ = dft_roots(m_, +1);
    roots_inv_ = dft_roots(m_, -1);
  } else {
    cp_fwd_ = std::make_unique<CpFft>(m_, +1);
    cp_inv_ = std::make_unique<CpFft>(m_, -1);
    dft_src_.resize(m_);
  }
  work_.resize(m_);
}

void DoubleFftEngine::bit_reverse(std::complex<double>* data) const {
  for (int i = 1, j = 0; i < m_; ++i) {
    int bit = m_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
      ++counters_.bitrev_swaps;
    }
  }
}

void DoubleFftEngine::dft(std::complex<double>* data, int sign) const {
  if (flow_ == FftFlow::kDepthFirstConjugatePair) {
    // CpFft::transform needs non-aliasing in/out; stage the input through a
    // preallocated buffer instead of a per-call heap allocation.
    const CpFft& t = sign > 0 ? *cp_fwd_ : *cp_inv_;
    std::copy(data, data + m_, dft_src_.begin());
    t.transform(dft_src_.data(), data);
    return;
  }
  // Breadth-first iterative radix-2 DIT.
  const auto& roots = sign > 0 ? roots_fwd_ : roots_inv_;
  bit_reverse(data);
  for (int half = 1; half < m_; half <<= 1) {
    const int step = m_ / (2 * half);
    for (int blk = 0; blk < m_; blk += 2 * half) {
      for (int j = 0; j < half; ++j) {
        const std::complex<double> w = roots[static_cast<size_t>(j) * step];
        const std::complex<double> u = data[blk + j];
        const std::complex<double> t = w * data[blk + j + half];
        data[blk + j] = u + t;
        data[blk + j + half] = u - t;
      }
    }
  }
}

void DoubleFftEngine::to_spectral_int(const IntPolynomial& p, Spectral& out) const {
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  assert(p.size() == n_);
  if (out.size() != m_) out.v.resize(m_); // no-op on presized workspaces
  for (int j = 0; j < m_; ++j) {
    const std::complex<double> c{static_cast<double>(p.coeffs[j]),
                                 static_cast<double>(p.coeffs[j + m_])};
    out.v[j] = c * twist_fwd_[j];
  }
  dft(out.v.data(), +1);
}

void DoubleFftEngine::to_spectral_torus(const TorusPolynomial& p, Spectral& out) const {
  ScopedTimer t(counters_.to_spectral_ns, counters_.to_spectral_calls);
  assert(p.size() == n_);
  if (out.size() != m_) out.v.resize(m_); // no-op on presized workspaces
  for (int j = 0; j < m_; ++j) {
    const std::complex<double> c{
        static_cast<double>(static_cast<int32_t>(p.coeffs[j])),
        static_cast<double>(static_cast<int32_t>(p.coeffs[j + m_]))};
    out.v[j] = c * twist_fwd_[j];
  }
  dft(out.v.data(), +1);
}

void DoubleFftEngine::from_spectral_torus(const Spectral& s, TorusPolynomial& out) const {
  ScopedTimer t(counters_.from_spectral_ns, counters_.from_spectral_calls);
  assert(s.size() == m_);
  if (out.size() != n_) out.coeffs.resize(n_);
  std::copy(s.v.begin(), s.v.end(), work_.begin());
  dft(work_.data(), -1);
  const double inv_m = 1.0 / m_;
  for (int j = 0; j < m_; ++j) {
    const std::complex<double> c = work_[j] * twist_inv_[j] * inv_m;
    // llround is exact up to 2^53; spectral magnitudes stay below 2^52 for
    // all library workloads (N*Bg/2*2^31 worst case, see DESIGN.md).
    out.coeffs[j] = static_cast<Torus32>(
        static_cast<int64_t>(std::llround(c.real())));
    out.coeffs[j + m_] = static_cast<Torus32>(
        static_cast<int64_t>(std::llround(c.imag())));
  }
}

void DoubleFftEngine::mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const {
  assert(acc.size() == m_ && a.size() == m_ && b.size() == m_);
  for (int k = 0; k < m_; ++k) acc.v[k] += a.v[k] * b.v[k];
}

void DoubleFftEngine::rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const {
  assert(dst.size() == m_ && src.size() == m_);
  // (X^{-c})(omega_k) = exp(-i*pi*(4k+1)*c/N); computed incrementally,
  // f_{k+1} = f_k * exp(-i*4*pi*c/N), so the loop is multiply-add only.
  const double pi = std::numbers::pi;
  const double base = -pi * static_cast<double>(c % (2LL * n_)) / n_;
  std::complex<double> f{std::cos(base), std::sin(base)};
  const std::complex<double> step{std::cos(4.0 * base), std::sin(4.0 * base)};
  for (int k = 0; k < m_; ++k) {
    dst.v[k] += (f - 1.0) * src.v[k];
    f *= step;
  }
}

void DoubleFftEngine::add_constant(Spectral& dst, Torus32 g) const {
  const double gd = static_cast<double>(static_cast<int32_t>(g));
  for (int k = 0; k < m_; ++k) dst.v[k] += gd;
}

} // namespace matcha
