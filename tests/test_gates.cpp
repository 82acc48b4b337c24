#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "fft/simd_fft.h"
#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

enum class Eng { kDouble, kLift };

struct GateCase {
  Eng eng;
  int unroll_m;
  BlindRotateMode mode;
};

class GateTruthTables : public ::testing::TestWithParam<GateCase> {
 protected:
  template <class F>
  void run(F&& body) {
    const auto& K = shared_keys();
    const auto& [eng_kind, m, mode] = GetParam();
    const CloudKeyset& ck = m == 1 ? K.ck1 : (m == 2 ? K.ck2 : K.ck3);
    if (eng_kind == Eng::kDouble) {
      const auto dk = load_device_keyset(K.deng, ck);
      auto ev = dk.make_evaluator(K.deng, K.params.mu(), mode);
      body(ev);
    } else {
      const auto dk = load_device_keyset(K.leng, ck);
      auto ev = dk.make_evaluator(K.leng, K.params.mu(), mode);
      body(ev);
    }
  }
};

TEST_P(GateTruthTables, AllBinaryGates) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(1);
  run([&](auto& ev) {
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        const LweSample ca = K.sk.encrypt_bit(a, rng);
        const LweSample cb = K.sk.encrypt_bit(b, rng);
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_nand(ca, cb)), !(a && b))
            << "NAND " << a << b;
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_and(ca, cb)), a && b)
            << "AND " << a << b;
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_or(ca, cb)), a || b)
            << "OR " << a << b;
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_nor(ca, cb)), !(a || b))
            << "NOR " << a << b;
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_xor(ca, cb)), a ^ b)
            << "XOR " << a << b;
        EXPECT_EQ(K.sk.decrypt_bit(ev.gate_xnor(ca, cb)), !(a ^ b))
            << "XNOR " << a << b;
      }
    }
  });
}

TEST_P(GateTruthTables, NotAndMux) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(2);
  run([&](auto& ev) {
    for (int a = 0; a <= 1; ++a) {
      const LweSample ca = K.sk.encrypt_bit(a, rng);
      EXPECT_EQ(K.sk.decrypt_bit(ev.gate_not(ca)), !a);
    }
    for (int s = 0; s <= 1; ++s) {
      for (int x = 0; x <= 1; ++x) {
        for (int y = 0; y <= 1; ++y) {
          const LweSample cs = K.sk.encrypt_bit(s, rng);
          const LweSample cx = K.sk.encrypt_bit(x, rng);
          const LweSample cy = K.sk.encrypt_bit(y, rng);
          EXPECT_EQ(K.sk.decrypt_bit(ev.gate_mux(cs, cx, cy)), s ? x : y)
              << s << x << y;
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GateTruthTables,
    ::testing::Values(GateCase{Eng::kDouble, 1, BlindRotateMode::kClassicCMux},
                      GateCase{Eng::kDouble, 1, BlindRotateMode::kBundle},
                      GateCase{Eng::kDouble, 2, BlindRotateMode::kBundle},
                      GateCase{Eng::kDouble, 3, BlindRotateMode::kBundle},
                      GateCase{Eng::kLift, 1, BlindRotateMode::kBundle},
                      GateCase{Eng::kLift, 2, BlindRotateMode::kBundle},
                      GateCase{Eng::kLift, 3, BlindRotateMode::kBundle}),
    [](const auto& info) {
      const auto& c = info.param;
      std::string s = c.eng == Eng::kDouble ? "double" : "lift40";
      s += "_m" + std::to_string(c.unroll_m);
      s += c.mode == BlindRotateMode::kBundle ? "_bundle" : "_classic";
      return s;
    });

TEST(GateChains, LongRandomCircuitStaysCorrect) {
  // 60 random two-input gates chained: the per-gate bootstrapping must keep
  // noise bounded indefinitely (TFHE's unlimited-depth claim).
  const auto& K = shared_keys();
  Rng rng = test::test_rng(3);
  const auto dk = load_device_keyset(K.deng, K.ck2);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  int plain = 1;
  LweSample enc = K.sk.encrypt_bit(plain, rng);
  for (int i = 0; i < 60; ++i) {
    const int other = rng.uniform_bit();
    const LweSample cother = K.sk.encrypt_bit(other, rng);
    switch (rng.uniform_below(4)) {
      case 0: plain = !(plain && other); enc = ev.gate_nand(enc, cother); break;
      case 1: plain = plain ^ other; enc = ev.gate_xor(enc, cother); break;
      case 2: plain = plain || other; enc = ev.gate_or(enc, cother); break;
      default: plain = plain && other; enc = ev.gate_and(enc, cother); break;
    }
    ASSERT_EQ(K.sk.decrypt_bit(enc), plain) << "gate " << i;
  }
}

TEST(GateStats, BreakdownAccountsForTotal) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(4);
  const auto dk = load_device_keyset(K.deng, K.ck1);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  const LweSample a = K.sk.encrypt_bit(1, rng), b = K.sk.encrypt_bit(1, rng);
  (void)ev.gate_nand(a, b);
  (void)ev.gate_nand(a, b);
  const auto& bd = ev.breakdown(GateKind::kNand);
  EXPECT_EQ(bd.gates, 2);
  EXPECT_GT(bd.total_ns, 0);
  EXPECT_GT(bd.ifft_ns, 0);
  EXPECT_GT(bd.fft_ns, 0);
  EXPECT_NEAR(static_cast<double>(bd.linear_ns + bd.ifft_ns + bd.fft_ns +
                                  bd.other_ns),
              static_cast<double>(bd.total_ns), bd.total_ns * 0.01);
  // The bootstrapping (everything but the linear part) dominates: Fig. 1.
  EXPECT_GT(bd.ifft_ns + bd.fft_ns + bd.other_ns, bd.total_ns * 9 / 10);
}

TEST(GateStats, NotGateHasNoBootstrap) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(5);
  const auto dk = load_device_keyset(K.deng, K.ck1);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  const LweSample a = K.sk.encrypt_bit(1, rng);
  (void)ev.gate_not(a);
  const auto& bd = ev.breakdown(GateKind::kNot);
  EXPECT_EQ(bd.ifft_ns, 0);
  EXPECT_EQ(bd.fft_ns, 0);
  const auto& nand_bd = ev.breakdown(GateKind::kNand);
  EXPECT_EQ(nand_bd.gates, 0);
}

TEST(GateStats, ClassicModeRejectsUnrolledKey) {
  // The classic CMux chain reads one TGSW per secret bit; an m = 2 key holds
  // only ceil(n/2) groups, so the evaluator must refuse it instead of
  // reading past the key.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(6);
  const auto dk = load_device_keyset(K.deng, K.ck2);
  auto ev = dk.make_evaluator(K.deng, K.params.mu(),
                              BlindRotateMode::kClassicCMux);
  const LweSample a = K.sk.encrypt_bit(1, rng), b = K.sk.encrypt_bit(0, rng);
  EXPECT_THROW((void)ev.gate_and(a, b), std::invalid_argument);
}

TEST(GateStats, ClassicModeRejectsSimdKey) {
  // The SIMD key holds only its bundle arena, no per-bit spectral TGSW, so
  // the classic chain must refuse even an m = 1 key on that engine.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(7);
  const SimdFftEngine eng(K.params.ring.n_ring);
  const auto dk = load_device_keyset(eng, K.ck1);
  auto ev =
      dk.make_evaluator(eng, K.params.mu(), BlindRotateMode::kClassicCMux);
  const LweSample a = K.sk.encrypt_bit(1, rng), b = K.sk.encrypt_bit(0, rng);
  EXPECT_THROW((void)ev.gate_and(a, b), std::invalid_argument);
}

TEST(GateNames, AllDistinct) {
  std::set<std::string> names;
  for (GateKind k : {GateKind::kNand, GateKind::kAnd, GateKind::kOr,
                     GateKind::kNor, GateKind::kXor, GateKind::kXnor,
                     GateKind::kNot, GateKind::kMux}) {
    names.insert(gate_name(k));
  }
  EXPECT_EQ(names.size(), 8u);
}

} // namespace
} // namespace matcha
