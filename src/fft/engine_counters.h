// Shared per-engine instrumentation. The Fig. 1 latency breakdown and the
// simulator's activity factors are regenerated from these counters.
//
// Counter scope contract (what keeps bench/fig1_breakdown's percentages
// summing sanely): the _ns timers cover DISJOINT, NON-NESTED scopes. Each
// public to_spectral/from_spectral entry point -- including the SIMD
// engine's fused bundle step, which times each of its 2l forward and 2
// inverse transforms exactly once via forward_raw/inverse_raw -- opens
// one timer for its whole kernel, and no helper it calls opens another.
// Work outside the transforms (gadget decomposition, spectral MAC, bundle
// rotations) is deliberately uncounted: GateEvaluator derives its "other"
// slice as bootstrap_wall - ifft - fft, so any double-counted nested scope
// would push that slice negative. When fusing kernels, attribute each
// sub-phase to at most one counter.
#pragma once

#include <chrono>
#include <cstdint>

namespace matcha {

struct EngineCounters {
  int64_t to_spectral_calls = 0;   ///< paper "IFFT" kernel invocations
  int64_t from_spectral_calls = 0; ///< paper "FFT" kernel invocations
  int64_t to_spectral_ns = 0;
  int64_t from_spectral_ns = 0;
  int64_t bitrev_swaps = 0; ///< breadth-first flow only
  int64_t lift_steps = 0;   ///< integer engine: executed lifting steps
  int64_t adds = 0;         ///< integer engine: butterfly additions
  // Blind-rotation fast paths (counts only, no timers -- the skipped work
  // never ran, so it must not perturb the "other = wall - ifft - fft"
  // breakdown contract above).
  int64_t zero_fft_skips = 0;   ///< forward FFTs elided: acc.a was exactly 0
  int64_t testv_fft_reuses = 0; ///< forward FFTs replaced by cached-spectrum
                                ///< synthesis of the constant test vector
  // Post-rotation accounting (counted by the executor at its extract call
  // sites -- extraction itself runs outside the engine kernels).
  int64_t sample_extracts = 0; ///< LWE samples read out of rotated accumulators

  void reset() { *this = {}; }

  /// Merge another counter set (per-thread counters are accumulated privately
  /// by each worker engine and folded into one aggregate on batch completion;
  /// see exec/batch_executor.h).
  EngineCounters& operator+=(const EngineCounters& o) {
    to_spectral_calls += o.to_spectral_calls;
    from_spectral_calls += o.from_spectral_calls;
    to_spectral_ns += o.to_spectral_ns;
    from_spectral_ns += o.from_spectral_ns;
    bitrev_swaps += o.bitrev_swaps;
    lift_steps += o.lift_steps;
    adds += o.adds;
    zero_fft_skips += o.zero_fft_skips;
    testv_fft_reuses += o.testv_fft_reuses;
    sample_extracts += o.sample_extracts;
    return *this;
  }

  /// Call/step counts only (timing fields excluded): the deterministic part
  /// compared by the counter-merge regression test.
  bool same_counts(const EngineCounters& o) const {
    return to_spectral_calls == o.to_spectral_calls &&
           from_spectral_calls == o.from_spectral_calls &&
           bitrev_swaps == o.bitrev_swaps && lift_steps == o.lift_steps &&
           adds == o.adds && zero_fft_skips == o.zero_fft_skips &&
           testv_fft_reuses == o.testv_fft_reuses &&
           sample_extracts == o.sample_extracts;
  }
};

/// RAII timer accumulating into a counter (nanoseconds).
class ScopedTimer {
 public:
  ScopedTimer(int64_t& sink, int64_t& calls) : sink_(sink) {
    ++calls;
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    sink_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t& sink_;
  std::chrono::steady_clock::time_point start_;
};

} // namespace matcha
