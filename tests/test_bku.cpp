#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "bku/bundle.h"
#include "fft/simd_fft.h"
#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

TEST(UnrolledKey, GroupCountsAndTail) {
  const auto& K = shared_keys();
  const int n = K.params.lwe.n; // 180
  EXPECT_EQ(K.ck1.bk.num_groups(), n);
  EXPECT_EQ(K.ck2.bk.num_groups(), (n + 1) / 2);
  EXPECT_EQ(K.ck3.bk.num_groups(), (n + 2) / 3);
  // Every full group stores 2^m - 1 TGSW samples.
  EXPECT_EQ(K.ck1.bk.groups[0].size(), 1u);
  EXPECT_EQ(K.ck2.bk.groups[0].size(), 3u);
  EXPECT_EQ(K.ck3.bk.groups[0].size(), 7u);
}

TEST(UnrolledKey, TotalTgswMatchesTable3Blowup) {
  const auto& K = shared_keys();
  const int n = K.params.lwe.n;
  EXPECT_EQ(K.ck1.bk.total_tgsw(), n);
  EXPECT_EQ(K.ck2.bk.total_tgsw(), 3 * (n / 2));
  EXPECT_EQ(K.ck3.bk.total_tgsw(), 7 * (n / 3));
}

TEST(UnrolledKey, IndicatorsEncryptSecretPatterns) {
  // For each group, exactly one nonzero-mask indicator can be 1 (the one
  // matching the secret bits), and it is 1 iff the secret pattern is nonzero.
  const auto& K = shared_keys();
  const auto& bk = K.ck3.bk;
  const auto& g = K.params.gadget;
  for (int grp : {0, 1, 10, 42}) {
    const int start = grp * bk.unroll_m;
    const int mg = bk.members(grp);
    uint32_t secret_mask = 0;
    for (int j = 0; j < mg; ++j) {
      secret_mask |= static_cast<uint32_t>(K.sk.lwe.s[start + j]) << j;
    }
    for (uint32_t mask = 1; mask < (1u << mg); ++mask) {
      // Decrypt the TGSW message from its top b-row: phase ~= msg / Bg.
      const auto& tgsw = bk.groups[grp][mask - 1];
      const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, tgsw.rows[g.l]);
      const Torus32 one = 1u << (32 - g.bg_bits);
      const int msg = torus_distance(phase.coeffs[0], one) < 0.25 / g.bg() ? 1 : 0;
      EXPECT_EQ(msg, mask == secret_mask ? 1 : 0)
          << "grp=" << grp << " mask=" << mask;
    }
  }
}

TEST(SubsetExponents, SingleRoundingPerSubset) {
  // c_S must equal ModSwitch(sum of torus values), not the sum of
  // ModSwitch'd values (the RO/m property of Table 3).
  const int n_ring = 256;
  Torus32 a[3] = {double_to_torus32(0.30001), double_to_torus32(0.19999),
                  double_to_torus32(0.125)};
  std::vector<int32_t> exps;
  group_subset_exponents(a, 3, n_ring, exps);
  ASSERT_EQ(exps.size(), 7u);
  // mask = 3 -> a0 + a1 = 0.5 exactly -> 256.
  EXPECT_EQ(exps[2], mod_switch_to_2n(a[0] + a[1], n_ring));
  EXPECT_EQ(exps[2], 256);
  for (uint32_t mask = 1; mask < 8; ++mask) {
    Torus32 sum = 0;
    for (int j = 0; j < 3; ++j) {
      if (mask & (1u << j)) sum += a[j];
    }
    EXPECT_EQ(exps[mask - 1], mod_switch_to_2n(sum, n_ring)) << mask;
  }
}

TEST(Bundle, AllZeroExponentsReportsIdentity) {
  const auto& K = shared_keys();
  const auto dev = load_bootstrap_key(K.deng, K.ck2.bk);
  auto bundle = make_bundle_storage(K.deng, K.params.gadget);
  const std::vector<int32_t> zeros(3, 0);
  EXPECT_FALSE(build_bundle(K.deng, dev.gadget, dev.groups[0], zeros, bundle));
}

TEST(Bundle, ActsAsXPowerRotationOnPhase) {
  // BKB (x) (0, mu) should rotate mu by X^{sum a_i s_i}.
  const auto& K = shared_keys();
  const auto& eng = K.deng;
  const auto dev = load_bootstrap_key(eng, K.ck2.bk);
  const int n = K.params.ring.n_ring;
  Rng rng = test::test_rng(4);

  for (int grp : {0, 3, 20}) {
    const int start = grp * 2;
    Torus32 a[2] = {rng.uniform_torus(), rng.uniform_torus()};
    std::vector<int32_t> exps;
    group_subset_exponents(a, 2, n, exps);
    auto bundle = make_bundle_storage(eng, K.params.gadget);
    ASSERT_TRUE(build_bundle(eng, dev.gadget, dev.groups[grp], exps, bundle));

    TorusPolynomial mu(n);
    mu.coeffs[0] = torus_fraction(1, 4);
    TLweSample acc = TLweSample::trivial(mu);
    ExternalProductWorkspace<DoubleFftEngine> ws(eng, K.params.gadget);
    external_product(eng, K.params.gadget, bundle, acc, ws);

    // Expected rotation: the exponent of the secret's actual pattern.
    const int s0 = K.sk.lwe.s[start], s1 = K.sk.lwe.s[start + 1];
    const uint32_t mask = static_cast<uint32_t>(s0) | (static_cast<uint32_t>(s1) << 1);
    TorusPolynomial expect(n);
    if (mask == 0) {
      expect = mu;
    } else {
      multiply_by_xpower(expect, mu, exps[mask - 1]);
    }
    const TorusPolynomial phase = tlwe_phase(K.sk.tlwe, acc);
    EXPECT_LE(max_torus_distance(phase, expect), 2e-3) << "grp=" << grp;
  }
}

TEST(Bundle, LiftEngineMatchesDoubleEngine) {
  const auto& K = shared_keys();
  const auto dev_d = load_bootstrap_key(K.deng, K.ck2.bk);
  const auto dev_l = load_bootstrap_key(K.leng, K.ck2.bk);
  const int n = K.params.ring.n_ring;
  Rng rng = test::test_rng(5);
  Torus32 a[2] = {rng.uniform_torus(), rng.uniform_torus()};
  std::vector<int32_t> exps;
  group_subset_exponents(a, 2, n, exps);

  TorusPolynomial mu(n);
  mu.coeffs[0] = torus_fraction(1, 4);

  auto run = [&](const auto& eng, const auto& dev) {
    auto bundle = make_bundle_storage(eng, K.params.gadget);
    build_bundle(eng, dev.gadget, dev.groups[7], exps, bundle);
    TLweSample acc = TLweSample::trivial(mu);
    ExternalProductWorkspace<std::decay_t<decltype(eng)>> ws(eng, K.params.gadget);
    external_product(eng, K.params.gadget, bundle, acc, ws);
    return tlwe_phase(K.sk.tlwe, acc);
  };
  const TorusPolynomial pd = run(K.deng, dev_d);
  const TorusPolynomial pl = run(K.leng, dev_l);
  EXPECT_LE(max_torus_distance(pd, pl), 1e-3);
}

TEST(DeviceKey, LoadPreservesShape) {
  const auto& K = shared_keys();
  const auto dev = load_bootstrap_key(K.leng, K.ck3.bk);
  EXPECT_EQ(dev.unroll_m, 3);
  EXPECT_EQ(dev.n_lwe, K.params.lwe.n);
  EXPECT_EQ(dev.num_groups(), K.ck3.bk.num_groups());
  EXPECT_EQ(dev.groups[0].size(), 7u);
  EXPECT_EQ(dev.groups[0][0].rows_count(), 2 * K.params.gadget.l);
}

TEST(DeviceKey, LoadRejectsAnEngineOfAnotherRing) {
  // A loader transforms eng.ring_n() coefficients of every key row, so a
  // test_small key (N = 256) must be refused by an N = 512 engine, not read
  // past its rows.
  const auto& K = shared_keys();
  const int other = 2 * K.params.ring.n_ring;
  const DoubleFftEngine deng(other);
  EXPECT_THROW(load_bootstrap_key(deng, K.ck2.bk), std::invalid_argument);
  const SimdFftEngine seng(other);
  EXPECT_THROW(load_bootstrap_key(seng, K.ck2.bk), std::invalid_argument);
  EXPECT_THROW(load_device_keyset(seng, K.ck2), std::invalid_argument);
}

TEST(DeviceKey, SimdKeyIsTheArenaAlone) {
  // The SIMD key holds one device copy: the group-major arena, whose block
  // for (g, mask) carries the TGSW's rows in order, each row the forward
  // spectra of its a and b polynomials as [a.re | a.im | b.re | b.im], bit
  // for bit.
  const auto& K = shared_keys();
  const UnrolledBootstrapKey& cloud = K.ck2.bk;
  const int rows = 2 * K.params.gadget.l;
  const auto coeffs = [](const TorusPolynomial& p) {
    return reinterpret_cast<const int32_t*>(p.coeffs.data());
  };
  for (const SimdLevel level : test::testable_levels()) {
    SimdFftEngine eng(K.params.ring.n_ring, level);
    const size_t m = static_cast<size_t>(eng.spectral_size());
    const auto dev = load_bootstrap_key(eng, cloud);
    EXPECT_TRUE(dev.groups.empty()) << simd_level_name(level);
    EXPECT_EQ(dev.num_groups(), cloud.num_groups());
    ASSERT_EQ(dev.soa.size(),
              static_cast<size_t>(cloud.total_tgsw()) * rows * 4 * m);
    std::vector<double> want(4 * m);
    int mismatches = 0;
    for (int g = 0; g < cloud.num_groups(); ++g) {
      for (size_t idx = 0; idx < cloud.groups[g].size(); ++idx) {
        const double* row = dev.soa_block(g, idx);
        for (int r = 0; r < rows; ++r, row += 4 * m) {
          const TLweSample& src =
              cloud.groups[g][idx].rows[static_cast<size_t>(r)];
          eng.forward_raw(coeffs(src.a), want.data(), want.data() + m);
          eng.forward_raw(coeffs(src.b), want.data() + 2 * m,
                          want.data() + 3 * m);
          mismatches +=
              std::memcmp(row, want.data(), 4 * m * sizeof(double)) != 0;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << simd_level_name(level);
  }
}

} // namespace
} // namespace matcha
