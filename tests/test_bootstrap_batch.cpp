// Batched blind rotation: group-major BSK streaming must be bit-for-bit
// identical to a batch of one at every batch size, on every engine -- the
// whole point of running every sample through the same per-(group, sample)
// bundle step. Also covers the batched functional bootstrap and the
// BatchExecutor's per-wavefront bootstrap flush across thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "fft/simd_fft.h"
#include "tfhe/functional.h"
#include "test_util.h"

namespace matcha {
namespace {

using circuits::EncWord;
using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::SymWord;
using exec::SymWordCircuits;
using exec::Wire;
using test::shared_keys;
using test::testable_levels;

bool same_sample(const LweSample& x, const LweSample& y) {
  return x.a == y.a && x.b == y.b;
}

/// Encrypt `count` gate inputs at alternating decryptable phases.
std::vector<LweSample> make_inputs(int count, uint64_t seed) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(seed);
  std::vector<LweSample> xs;
  xs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double ph = (i % 2 == 0 ? 1.0 : -1.0) * (0.05 + 0.4 * (i % 5) / 5.0);
    xs.push_back(
        lwe_encrypt(K.sk.lwe, double_to_torus32(ph), K.params.lwe.sigma, rng));
  }
  return xs;
}

/// bootstrap_batch vs per-sample batches of one, bitwise, on one engine /
/// cloud keyset / batch size. Two independent workspaces so neither path can
/// lean on the other's cached state.
template <class Engine>
void expect_batch_matches_sequential(const Engine& eng, const CloudKeyset& ck,
                                     int batch, uint64_t seed) {
  const auto& K = shared_keys();
  const auto bk = load_bootstrap_key(eng, ck.bk);
  BootstrapWorkspace<Engine> ws_seq(eng, K.params.gadget);
  BootstrapWorkspace<Engine> ws_bat(eng, K.params.gadget);
  KeySwitchWorkspace ks_ws;

  const std::vector<LweSample> xs = make_inputs(batch, seed);
  std::vector<LweSample> want(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    want[static_cast<size_t>(b)] = test::gate_bootstrap(
        eng, bk, ck.ks, K.params.mu(), xs[static_cast<size_t>(b)], ws_seq);
  }

  std::vector<LweSample> got(static_cast<size_t>(batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &xs[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &got[static_cast<size_t>(b)];
  }
  bootstrap_batch(eng, bk, ck.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_bat, ks_ws);

  for (int b = 0; b < batch; ++b) {
    ASSERT_TRUE(same_sample(want[static_cast<size_t>(b)],
                            got[static_cast<size_t>(b)]))
        << "batch=" << batch << " sample " << b;
    const double ph = torus32_to_double(
        lwe_phase(K.sk.lwe, got[static_cast<size_t>(b)]));
    EXPECT_EQ(ph > 0 ? 1 : 0, b % 2 == 0 ? 1 : 0) << "sample " << b;
  }
}

TEST(BootstrapBatch, DoubleEngineBundleAllUnrolls) {
  const auto& K = shared_keys();
  for (const int batch : {1, 2, 7, 32}) {
    expect_batch_matches_sequential(K.deng, K.ck1, batch, 11);
    if (batch <= 7) { // keep the m sweep off the largest batch for runtime
      expect_batch_matches_sequential(K.deng, K.ck2, batch, 12);
      expect_batch_matches_sequential(K.deng, K.ck3, batch, 13);
    }
  }
}

TEST(BootstrapBatch, SimdEngineAllLevels) {
  const auto& K = shared_keys();
  const int n_ring = K.params.ring.n_ring;
  for (const SimdLevel level : testable_levels()) {
    SimdFftEngine eng(n_ring, level);
    for (const int batch : {1, 7, 32}) {
      expect_batch_matches_sequential(eng, K.ck2, batch, 31);
    }
    expect_batch_matches_sequential(eng, K.ck3, 2, 33);
  }
}

TEST(BootstrapBatch, OutputsMayAliasInputs) {
  const auto& K = shared_keys();
  const int batch = 5;
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws_a(K.deng, K.params.gadget);
  BootstrapWorkspace<DoubleFftEngine> ws_b(K.deng, K.params.gadget);
  KeySwitchWorkspace ks_ws_a, ks_ws_b;

  std::vector<LweSample> fresh = make_inputs(batch, 41);
  std::vector<LweSample> inplace = fresh; // same ciphertexts
  std::vector<LweSample> out(static_cast<size_t>(batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &fresh[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &out[static_cast<size_t>(b)];
  }
  bootstrap_batch(K.deng, bk, K.ck2.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_a, ks_ws_a);

  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &inplace[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &inplace[static_cast<size_t>(b)];
  }
  bootstrap_batch(K.deng, bk, K.ck2.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_b, ks_ws_b);

  for (int b = 0; b < batch; ++b) {
    EXPECT_TRUE(same_sample(out[static_cast<size_t>(b)],
                            inplace[static_cast<size_t>(b)]))
        << "sample " << b;
  }
}

TEST(BootstrapBatch, FunctionalBatchMatchesSequential) {
  const auto& K = shared_keys();
  const int slots = 4;
  Rng rng = test::test_rng(51);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) {
    vals[static_cast<size_t>(i)] = encode_message((i * 3 + 1) % slots, slots);
  }
  const TorusPolynomial tv = make_lut_testvector(K.params.ring.n_ring, vals);
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws_seq(K.deng, K.params.gadget);
  BootstrapWorkspace<DoubleFftEngine> ws_bat(K.deng, K.params.gadget);

  const int batch = 8;
  std::vector<LweSample> xs;
  for (int b = 0; b < batch; ++b) {
    xs.push_back(encrypt_message(K.sk.lwe, b % slots, slots,
                                 K.params.lwe.sigma, rng));
  }
  const int offset = 0;
  std::vector<LweSample> want(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    const LweSample* in = &xs[static_cast<size_t>(b)];
    LweSample* out = &want[static_cast<size_t>(b)];
    rotate_extract_batch(K.deng, bk, tv, &in, &out, &offset, 1, 1, ws_seq);
  }

  std::vector<LweSample> got(static_cast<size_t>(batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &xs[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &got[static_cast<size_t>(b)];
  }
  rotate_extract_batch(K.deng, bk, tv, in_ptrs.data(), out_ptrs.data(),
                       &offset, 1, batch, ws_bat);
  for (int b = 0; b < batch; ++b) {
    EXPECT_TRUE(same_sample(want[static_cast<size_t>(b)],
                            got[static_cast<size_t>(b)]))
        << "sample " << b;
  }
}

/// The executor's deferred bootstrap flush: a MUX-heavy circuit (both branch
/// bootstraps ride one flush) run at several thread counts must match the
/// single-thread run bitwise and decrypt to the plaintext evaluation.
struct MuxTreeCircuit {
  CircuitBuilder b;
  std::vector<Wire> ins;
  std::vector<Wire> outs;

  explicit MuxTreeCircuit(int width) {
    for (int i = 0; i < 3 * width; ++i) ins.push_back(b.input());
    for (int i = 0; i < width; ++i) {
      const Wire s = ins[static_cast<size_t>(3 * i)];
      const Wire t = ins[static_cast<size_t>(3 * i + 1)];
      const Wire u = ins[static_cast<size_t>(3 * i + 2)];
      const Wire m = b.gate_mux(s, t, u);
      const Wire x = b.gate_xor(m, b.gate_and(t, u));
      const Wire o = b.gate_mux(x, m, b.gate_not(s));
      outs.push_back(o);
      b.mark_output(o);
    }
  }

  static int eval_plain(int s, int t, int u) {
    const int m = s ? t : u;
    const int x = m ^ (t & u);
    return x ? m : (s ? 0 : 1);
  }
};

TEST(BootstrapBatch, ExecutorThreadCountsBitIdenticalAndCorrect) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const int width = 4;
  MuxTreeCircuit c(width);

  Rng bit_rng = test::test_rng(61);
  std::vector<int> plain;
  for (size_t i = 0; i < c.ins.size(); ++i) {
    plain.push_back(static_cast<int>(bit_rng.uniform_below(2)));
  }
  const auto encrypt_inputs = [&](Rng& rng) {
    std::vector<LweSample> in;
    for (const int p : plain) in.push_back(K.sk.encrypt_bit(p, rng));
    return in;
  };

  auto make_engine = [&] {
    return std::make_unique<DoubleFftEngine>(K.params.ring.n_ring);
  };
  BatchResult ref;
  for (const int threads : {1, 2, 4}) {
    BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks,
                                      K.params.mu(), threads);
    Rng rng_run = test::test_rng(62); // identical ciphertext inputs
    BatchResult r = ex.run(c.b.graph(), encrypt_inputs(rng_run));
    if (threads == 1) {
      ref = std::move(r);
      for (int i = 0; i < width; ++i) {
        EXPECT_EQ(K.sk.decrypt_bit(ref.at(c.outs[static_cast<size_t>(i)])),
                  MuxTreeCircuit::eval_plain(plain[static_cast<size_t>(3 * i)],
                                             plain[static_cast<size_t>(3 * i + 1)],
                                             plain[static_cast<size_t>(3 * i + 2)]))
            << "lane " << i;
      }
      continue;
    }
    ASSERT_EQ(r.values.size(), ref.values.size()) << threads << " threads";
    for (size_t w = 0; w < r.values.size(); ++w) {
      ASSERT_TRUE(same_sample(r.values[w], ref.values[w]))
          << threads << " threads, wire " << w;
    }
  }
}

/// Randomized circuits through the executor: batched wavefront evaluation
/// (adder + comparator word circuits, which mix binary gates, MUX and NOT)
/// must decrypt to the plaintext arithmetic at every thread count.
TEST(BootstrapBatch, ExecutorRandomWordCircuitsDecryptCorrectly) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  constexpr int kWidth = 3;

  CircuitBuilder b;
  SymWord x = b.input_word(kWidth);
  SymWord y = b.input_word(kWidth);
  SymWordCircuits wc(b);
  SymWord sum = wc.add(x, y, nullptr, /*with_carry_out=*/true);
  Wire gt = wc.greater_than(x, y);
  for (const Wire w : sum.bits) b.mark_output(w);
  b.mark_output(gt);

  auto make_engine = [&] {
    return std::make_unique<DoubleFftEngine>(K.params.ring.n_ring);
  };
  Rng val_rng = test::test_rng(71);
  for (const int threads : {1, 4}) {
    BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks,
                                      K.params.mu(), threads);
    const uint64_t vx = val_rng.uniform_below(1u << kWidth);
    const uint64_t vy = val_rng.uniform_below(1u << kWidth);
    Rng rng = test::test_rng(72 + static_cast<uint64_t>(threads));
    std::vector<LweSample> in;
    const EncWord ex_w = circuits::encrypt_word(K.sk, vx, kWidth, rng);
    const EncWord ey_w = circuits::encrypt_word(K.sk, vy, kWidth, rng);
    in.insert(in.end(), ex_w.bits.begin(), ex_w.bits.end());
    in.insert(in.end(), ey_w.bits.begin(), ey_w.bits.end());
    const BatchResult r = ex.run(b.graph(), std::move(in));
    EncWord w;
    for (const Wire s : sum.bits) w.bits.push_back(r.at(s));
    EXPECT_EQ(circuits::decrypt_word(K.sk, w), vx + vy)
        << vx << "+" << vy << " @" << threads << " threads";
    EXPECT_EQ(K.sk.decrypt_bit(r.at(gt)), vx > vy ? 1 : 0);
  }
}

} // namespace
} // namespace matcha
