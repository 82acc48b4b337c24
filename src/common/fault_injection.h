// Deterministic, seedable fault injection for the execution core -- the
// injected-known-fault methodology: every failure path the executor claims
// to handle must be provokable on demand, under test, reproducibly.
//
// A *site* is a named checkpoint compiled into a layer
// ("exec.keyswitch.bitflip", "io.read.truncate", ...). Each call to
// should_fire(site) is one *check*; whether check #n of a site fires is a
// pure function of (seed, site name, n), so a run with a fixed MATCHA_FAULTS
// seed provokes the same multiset of faults per site regardless of thread
// interleaving (which worker absorbs each fault may vary; the executor's
// isolation contract makes that irrelevant).
//
// Two activation paths:
//  * env chaos: MATCHA_FAULTS=<seed>:<rate> arms every kChaos-scoped site at
//    the given Bernoulli rate. Chaos sites sit only on paths whose failures
//    the stack masks or reports structurally (executor tasks, pool workers),
//    so the full test suite stays green under chaos -- that end-to-end
//    masking IS the property the chaos CI leg pins.
//  * explicit arming: tests arm any site (including kArmedOnly sites on
//    non-recoverable paths like deserialization and the chip simulator) to
//    fire at chosen check indices, for deterministic single-fault tests.
//
// Overhead contract: sites are always compiled in. A disabled registry
// costs one relaxed atomic load + predicted branch per check, and sites sit
// at task / flush granularity (milliseconds of FFTs apart), never in inner
// loops; the CI latency gates (scripts/bench_trend.py) hold with sites
// compiled in but disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace matcha::fault {

/// Where a site may fire from. kChaos sites fire under the MATCHA_FAULTS env
/// (their failures are masked or structurally reported by the surrounding
/// machinery); kArmedOnly sites fire only when a test arms them explicitly
/// (their paths surface the failure to the caller, so random env firing
/// would fail unrelated tests rather than exercise recovery).
enum class Scope : uint8_t { kChaos, kArmedOnly };

/// Statistics for one site.
struct SiteStats {
  std::string site;
  uint64_t checks = 0;
  uint64_t fires = 0;
};

namespace detail {
extern bool g_active; ///< fast-path gate, written only under the registry lock
bool should_fire_slow(const char* site, Scope scope);
} // namespace detail

/// One check of `site`; true means the caller must now inject its fault.
inline bool should_fire(const char* site, Scope scope = Scope::kChaos) {
  // Relaxed single-byte read: the registry only transitions active state
  // between runs (tests) or at first use (env), never mid-batch.
  if (!__atomic_load_n(&detail::g_active, __ATOMIC_RELAXED)) return false;
  return detail::should_fire_slow(site, scope);
}

/// Always true: every build carries the sites. The bench JSON headers
/// record it.
inline constexpr bool compiled_in() { return true; }

/// Global registry behind should_fire. All methods are thread-safe; arming /
/// configuration is meant to happen while no batch is in flight.
class Registry {
 public:
  static Registry& instance();

  /// Enable chaos mode: every kChaos site fires i.i.d. at `rate` per check,
  /// derived deterministically from (seed, site, check index).
  void enable_chaos(uint64_t seed, double rate);

  /// Arm `site` (any scope) to fire on its next `count` checks after
  /// skipping `after_checks` checks from now. Deterministic single-fault
  /// switch for tests.
  void arm(const std::string& site, uint64_t after_checks = 0,
           uint64_t count = 1);

  /// Drop all arming and chaos configuration and zero all counters.
  void reset();

  /// Re-read MATCHA_FAULTS from the environment (done once automatically on
  /// first use; exposed for tests that mutate the env).
  void reload_env();

  bool active() const;

  /// Per-site counters for every site checked at least once since reset().
  std::vector<SiteStats> stats() const;
  /// Total fires across all sites since reset().
  uint64_t total_fires() const;

 private:
  Registry();
  struct Impl;
  Impl* impl_; // intentionally leaked singleton state
  friend bool detail::should_fire_slow(const char* site, Scope scope);
};

/// Parse a MATCHA_FAULTS value ("seed:rate", e.g. "42:0.01"). Exposed for
/// tests; rate must be in (0, 1].
StatusOr<std::pair<uint64_t, double>> parse_faults_env(const std::string& v);

/// The exception a firing site throws when its fault model is "this
/// operation failed with `status`". Layer boundaries (the batch executor's
/// task wrapper, io's try_read_* converters) catch it and surface the
/// carried Status -- never the raw exception.
class FaultInjected : public StatusError {
 public:
  FaultInjected(const char* site, Status status)
      : StatusError(std::move(status)), site_(site) {}
  const char* site() const { return site_; }

 private:
  const char* site_;
};

/// Canonical site names, collected here so tests can enumerate them; the
/// naming scheme is <layer>.<object>.<failure-mode> (DESIGN.md "Failure
/// model and fault-injection contract").
inline constexpr const char* kSiteKeyswitchBitflip = "exec.keyswitch.bitflip";
inline constexpr const char* kSiteBskRowCorrupt = "exec.bsk.row_corrupt";
inline constexpr const char* kSiteArenaAllocFail = "exec.arena.alloc_fail";
inline constexpr const char* kSiteTaskException = "exec.task.exception";
inline constexpr const char* kSitePoolStall = "exec.pool.task_stall";
inline constexpr const char* kSiteIoTruncate = "io.read.truncate";
inline constexpr const char* kSiteIoGarble = "io.read.garble";
inline constexpr const char* kSiteInterchipDrop = "sim.interchip.drop";

} // namespace matcha::fault
