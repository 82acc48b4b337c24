#include "common/fault_injection.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace matcha::fault {

namespace {

/// splitmix64: the per-check decision hash. Statistically uniform, cheap,
/// and -- unlike the engine Rng -- stateless, so check #n of a site fires
/// identically whatever order threads interleave the other sites' checks.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t fnv1a(const char* s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (; *s; ++s) h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001B3ULL;
  return h;
}

struct ArmedBurst {
  uint64_t from = 0;      ///< first check index (per site) that fires
  uint64_t remaining = 0; ///< fires left in this burst
};

struct Site {
  uint64_t checks = 0;
  uint64_t fires = 0;
  std::vector<ArmedBurst> armed;
};

} // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, Site> sites;
  bool chaos = false;
  uint64_t seed = 0;
  double rate = 0;
  uint64_t fires_total = 0;
  bool env_loaded = false;
};

namespace detail {
bool g_active = false;
} // namespace detail

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
  static Registry* r = [] {
    auto* reg = new Registry();
    reg->reload_env();
    return reg;
  }();
  return *r;
}

void Registry::reload_env() {
  const char* env = std::getenv("MATCHA_FAULTS");
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->env_loaded = true;
  if (env == nullptr || *env == '\0') return;
  auto parsed = parse_faults_env(env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "matcha: ignoring MATCHA_FAULTS=%s (%s)\n", env,
                 parsed.status().to_string().c_str());
    return;
  }
  impl_->chaos = true;
  impl_->seed = parsed->first;
  impl_->rate = parsed->second;
  __atomic_store_n(&detail::g_active, true, __ATOMIC_RELAXED);
}

void Registry::enable_chaos(uint64_t seed, double rate) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->chaos = rate > 0;
  impl_->seed = seed;
  impl_->rate = rate;
  if (impl_->chaos) __atomic_store_n(&detail::g_active, true, __ATOMIC_RELAXED);
}

void Registry::arm(const std::string& site, uint64_t after_checks,
                   uint64_t count) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  Site& s = impl_->sites[site];
  s.armed.push_back(ArmedBurst{s.checks + after_checks, count});
  __atomic_store_n(&detail::g_active, true, __ATOMIC_RELAXED);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->sites.clear();
  impl_->chaos = false;
  impl_->rate = 0;
  impl_->fires_total = 0;
  __atomic_store_n(&detail::g_active, false, __ATOMIC_RELAXED);
}

bool Registry::active() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->chaos) return true;
  for (const auto& [name, s] : impl_->sites) {
    for (const auto& b : s.armed) {
      if (b.remaining > 0) return true;
    }
  }
  return false;
}

std::vector<SiteStats> Registry::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<SiteStats> out;
  out.reserve(impl_->sites.size());
  for (const auto& [name, s] : impl_->sites) {
    out.push_back(SiteStats{name, s.checks, s.fires});
  }
  return out;
}

uint64_t Registry::total_fires() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->fires_total;
}

StatusOr<std::pair<uint64_t, double>> parse_faults_env(const std::string& v) {
  const size_t colon = v.find(':');
  if (colon == std::string::npos) {
    return invalid_argument_status("MATCHA_FAULTS wants <seed>:<rate>");
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(v.c_str(), &end, 0);
  if (end != v.c_str() + colon) {
    return invalid_argument_status("MATCHA_FAULTS seed is not an integer");
  }
  const double rate = std::strtod(v.c_str() + colon + 1, &end);
  if (*end != '\0' || !(rate > 0) || rate > 1) {
    return invalid_argument_status("MATCHA_FAULTS rate must be in (0, 1]");
  }
  return std::make_pair(static_cast<uint64_t>(seed), rate);
}

namespace detail {

bool should_fire_slow(const char* site, Scope scope) {
  Registry& reg = Registry::instance();
  auto* impl = reg.impl_;
  std::lock_guard<std::mutex> lk(impl->mu);
  Site& s = impl->sites[site];
  const uint64_t check = s.checks++;
  // Explicit arming wins over chaos so a test can pin a site even while the
  // env chaos is live.
  for (auto& b : s.armed) {
    if (b.remaining > 0 && check >= b.from) {
      --b.remaining;
      ++s.fires;
      ++impl->fires_total;
      return true;
    }
  }
  if (impl->chaos && scope == Scope::kChaos) {
    const uint64_t h = mix64(impl->seed ^ fnv1a(site) ^ (check * 0x9E37ULL));
    // Compare the hash against rate * 2^64 without overflowing at rate = 1.
    const double threshold = impl->rate * 18446744073709551616.0;
    if (static_cast<double>(h) < threshold) {
      ++s.fires;
      ++impl->fires_total;
      return true;
    }
  }
  return false;
}

} // namespace detail

} // namespace matcha::fault
