// What one benchmark run reports: the end-to-end and per-layer metric
// schemas (the names BENCHMARK.json lists), the values a workload measured,
// its correctness ledger, and the deterministic counts that failed to repeat
// within the run.
#pragma once

#include <cassert>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed (untraced) by every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"circuits_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// the workload never calls reads 0 (see METRICS.md).
inline constexpr MetricSpec kPerLayer[] = {
    // set-up
    {"tfhe.keygen_s", "s"},
    {"io.keyset_bytes", "bytes"},
    {"io.keyset_write_s", "s"},
    {"io.keyset_read_s", "s"},
    {"bku.device_load_s", "s"},
    {"bku.bsk_device_bytes", "bytes"},
    {"exec.executor_init_ms", "ms"},
    {"exec.compile_ms", "ms"},
    // compiled circuit (deterministic)
    {"exec.bootstraps", "count"},
    {"exec.depth", "count"},
    {"exec.sample_extracts", "count"},
    // executor, per request
    {"exec.run_batch_ms", "ms"},
    {"exec.busy_ms", "ms"},
    {"exec.idle_ms", "ms"},
    {"exec.steals", "count"},
    {"exec.faulted_items", "count"},
    {"exec.retry_runs", "count"},
    {"exec.bootstraps_per_s", "1/s"},
    {"exec.core_ms_per_bootstrap", "ms"},
    {"exec.contention_ratio", "ratio"},
    // engine counters, per request
    {"fft.forward_calls", "count"},
    {"fft.inverse_calls", "count"},
    {"fft.forward_ms", "ms"},
    {"fft.inverse_ms", "ms"},
    {"fft.zero_fft_skips", "count"},
    {"fft.testv_fft_reuses", "count"},
    {"fft.share_of_busy", "ratio"},
    // client side, per request
    {"tfhe.encrypt_ms", "ms"},
    {"tfhe.decrypt_ms", "ms"},
    // single-threaded replay of one request's bootstraps
    {"tfhe.blind_rotate_us", "us"},
    {"tfhe.keyswitch_us", "us"},
    {"tfhe.unattributed_us", "us"},
    {"tfhe.ksk_bytes_per_sample", "bytes"},
    {"bku.bsk_bytes_per_bootstrap", "bytes"},
    // chip simulator
    {"sim.host_ms_multichip", "ms"},
    {"sim.host_ms_single_chip", "ms"},
    {"sim.makespan_cycles", "cycles"},
    {"sim.makespan_greedy_cycles", "cycles"},
    {"sim.refine_gain", "ratio"},
    {"sim.transfers", "count"},
    {"sim.cut_wires", "count"},
    {"sim.chip_occupancy_mean", "ratio"},
    {"sim.link_utilization", "ratio"},
    // noise margin of the checked decodes
    {"noise.min_margin", "ratio"},
    {"noise.suspect_decodes", "count"},
    {"noise.decodes", "count"},
    // self time per layer (traced requests) and tracing cost
    {"tfhe.self_ms", "ms"},
    {"exec.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"bench.error_rate", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// One measured value plus how many samples it summarises (1 for a count or
/// a single measurement).
struct Value {
  double value = 0;
  int64_t samples = 1;
};

struct Report {
  std::map<std::string, Value> metrics;
  /// Deterministic counts that differed when the run repeated a request it
  /// had already served (see main.cpp); a non-empty list fails the run.
  std::vector<std::string> mismatches;
  int64_t attempted = 0; ///< items checked in the measured window
  int64_t failed = 0;    ///< wrong decrypts, non-ok statuses, broken invariants
  int64_t requests = 0;  ///< requests in the measured window
  double latency_p90_ms = -1; ///< only when the window holds >= 100 requests

  void set(const std::string& name, double v, int64_t samples = 1) {
    metrics[name] = Value{v, samples};
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank quantile q in [0, 1] of the samples (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (q <= 0) return v.front();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n) + 0.999999999);
  rank = std::min(std::max<size_t>(rank, 1), n);
  return v[rank - 1];
}

/// Median (mean of the two middle samples for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A distinct, reproducible stream for (seed, purpose/index): splitmix64.
inline uint64_t mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

} // namespace perfbench
