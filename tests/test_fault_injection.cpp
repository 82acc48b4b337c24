// Fault-injection registry semantics plus the io-layer sites. The executor
// sites (bitflip / bsk / alloc / stall) are exercised end-to-end in
// test_exec.cpp where a real batch is available; here we pin the registry
// contract itself: determinism, arming, env parsing, and that armed io sites
// surface as clean Status failures.
#include <gtest/gtest.h>

#include <sstream>

#include "common/fault_injection.h"
#include "io/serialize.h"
#include "test_util.h"

using namespace matcha;

namespace {

/// Registry state is global; every test starts and ends clean.
struct RegistryGuard {
  RegistryGuard() { fault::Registry::instance().reset(); }
  ~RegistryGuard() { fault::Registry::instance().reset(); }
};

TEST(FaultRegistry, InactiveByDefault) {
  RegistryGuard g;
  EXPECT_FALSE(fault::Registry::instance().active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::should_fire("test.site.a"));
  }
  // Checks against an inactive registry are not even counted (fast path).
  EXPECT_TRUE(fault::Registry::instance().stats().empty());
}

TEST(FaultRegistry, ArmFiresExactlyOnceAtTheArmedCheck) {
  RegistryGuard g;
  auto& reg = fault::Registry::instance();
  reg.arm("test.site.a", /*after_checks=*/3, /*count=*/1);
  int fires = 0, fire_at = -1;
  for (int i = 0; i < 10; ++i) {
    if (fault::should_fire("test.site.a")) {
      ++fires;
      fire_at = i;
    }
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fire_at, 3);
  // Other sites are untouched by the arming.
  EXPECT_FALSE(fault::should_fire("test.site.b"));
}

TEST(FaultRegistry, ArmBurstAndScopeIndependence) {
  RegistryGuard g;
  auto& reg = fault::Registry::instance();
  reg.arm("test.site.a", 0, 3);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    // Arming fires regardless of the site's scope.
    if (fault::should_fire("test.site.a", fault::Scope::kArmedOnly)) ++fires;
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(reg.total_fires(), 3u);
}

TEST(FaultRegistry, ChaosIsDeterministicPerSeedSiteAndCheck) {
  RegistryGuard g;
  auto& reg = fault::Registry::instance();
  const int kChecks = 4000;
  const double kRate = 0.05;

  auto run = [&](uint64_t seed, const char* site) {
    reg.reset();
    reg.enable_chaos(seed, kRate);
    std::vector<bool> fired(kChecks);
    for (int i = 0; i < kChecks; ++i) fired[i] = fault::should_fire(site);
    return fired;
  };

  const auto a1 = run(42, "test.site.a");
  const auto a2 = run(42, "test.site.a");
  EXPECT_EQ(a1, a2) << "same seed+site+check must reproduce exactly";
  EXPECT_NE(a1, run(43, "test.site.a")) << "seed must matter";
  EXPECT_NE(a1, run(42, "test.site.b")) << "site name must matter";

  const auto fires =
      static_cast<int>(std::count(a1.begin(), a1.end(), true));
  // Bernoulli(0.05) over 4000 checks: mean 200, sigma ~13.8. +-6 sigma.
  EXPECT_GT(fires, 200 - 85);
  EXPECT_LT(fires, 200 + 85);
}

TEST(FaultRegistry, ChaosRespectsArmedOnlyScope) {
  RegistryGuard g;
  fault::Registry::instance().enable_chaos(7, 1.0);
  // Rate 1.0 fires every kChaos check but must never touch kArmedOnly sites.
  EXPECT_TRUE(fault::should_fire("test.site.a"));
  EXPECT_FALSE(fault::should_fire("test.site.b", fault::Scope::kArmedOnly));
}

TEST(FaultRegistry, StatsCountChecksAndFires) {
  RegistryGuard g;
  auto& reg = fault::Registry::instance();
  reg.arm("test.site.a", 1, 2);
  for (int i = 0; i < 5; ++i) (void)fault::should_fire("test.site.a");
  const auto stats = reg.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].site, "test.site.a");
  EXPECT_EQ(stats[0].checks, 5u);
  EXPECT_EQ(stats[0].fires, 2u);
}

TEST(FaultRegistry, ParseFaultsEnv) {
  auto ok = fault::parse_faults_env("42:0.01");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, 42u);
  EXPECT_DOUBLE_EQ(ok->second, 0.01);

  EXPECT_TRUE(fault::parse_faults_env("0xdead:1").ok());
  EXPECT_FALSE(fault::parse_faults_env("").ok());
  EXPECT_FALSE(fault::parse_faults_env("42").ok());
  EXPECT_FALSE(fault::parse_faults_env("x:0.5").ok());
  EXPECT_FALSE(fault::parse_faults_env("42:0").ok());
  EXPECT_FALSE(fault::parse_faults_env("42:1.5").ok());
  EXPECT_FALSE(fault::parse_faults_env("42:nope").ok());
}

// ------------------------------------------------------------ io sites ----

TEST(FaultIo, InjectedTruncationIsCleanDataLoss) {
  RegistryGuard g;
  std::stringstream ss;
  io::write_params(ss, TfheParams::test_small());

  fault::Registry::instance().arm(fault::kSiteIoTruncate, 2);
  auto r = io::try_read_params(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(FaultIo, InjectedGarbleIsCaughtByChecksum) {
  RegistryGuard g;
  const TfheParams p = TfheParams::test_small();
  // Garble each raw read in turn: every single-bit corruption must surface
  // as a structured failure (checksum mismatch, bounds, or bad header),
  // never a silently-wrong object.
  for (uint64_t skip = 0; skip < 16; ++skip) {
    std::stringstream ss;
    io::write_params(ss, p);
    fault::Registry::instance().reset();
    fault::Registry::instance().arm(fault::kSiteIoGarble, skip);
    auto r = io::try_read_params(ss);
    if (fault::Registry::instance().total_fires() == 0) break; // past EOF
    ASSERT_FALSE(r.ok()) << "garbled read #" << skip << " must not decode";
  }
}

TEST(FaultIo, UnarmedSitesAreFreeOfSideEffects) {
  RegistryGuard g;
  std::stringstream ss;
  io::write_params(ss, TfheParams::test_small());
  auto r = io::try_read_params(ss);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->lwe.n, TfheParams::test_small().lwe.n);
}

} // namespace
