// The GateGraph optimization pipeline: constant folding, common-subexpression
// elimination, and dead-gate elimination must preserve circuit semantics --
// CSE/DCE bit-for-bit (deduplicated gates recompute the identical
// deterministic bootstrap; dead gates feed no output), constant folding up to
// plaintext equality (a folded gate skips its bootstrap entirely). Plus the
// sim bridge: the optimized DAG's shape as the chip scheduler sees it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "exec/sim_bridge.h"
#include "test_util.h"

namespace matcha {
namespace {

using circuits::EncWord;
using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::CompiledGraph;
using exec::GateGraph;
using exec::OptimizeOptions;
using exec::OptimizeStats;
using exec::SymWord;
using exec::SymWordCircuits;
using exec::Wire;
using test::shared_keys;

std::unique_ptr<DoubleFftEngine> make_engine() {
  return std::make_unique<DoubleFftEngine>(shared_keys().params.ring.n_ring);
}

bool same_sample(const LweSample& x, const LweSample& y) {
  return x.a == y.a && x.b == y.b;
}

bool eval_plain(GateKind kind, bool a, bool b, bool c = false) {
  switch (kind) {
    case GateKind::kNand: return !(a && b);
    case GateKind::kAnd: return a && b;
    case GateKind::kOr: return a || b;
    case GateKind::kNor: return !(a || b);
    case GateKind::kXor: return a != b;
    case GateKind::kXnor: return a == b;
    case GateKind::kNot: return !a;
    case GateKind::kMux: return a ? b : c;
    case GateKind::kFreeOr: return a || b;
    case GateKind::kLut:
    case GateKind::kLutOut:
      break; // not constructed by these tests
  }
  return false;
}

constexpr GateKind kBinaryKinds[] = {GateKind::kNand, GateKind::kAnd,
                                     GateKind::kOr,   GateKind::kNor,
                                     GateKind::kXor,  GateKind::kXnor};

TEST(ConstantFolding, FullyConstantGatesBecomeConstants) {
  // Every binary kind over every constant pair reduces to its truth table.
  for (const GateKind kind : kBinaryKinds) {
    for (int va = 0; va <= 1; ++va) {
      for (int vb = 0; vb <= 1; ++vb) {
        GateGraph g;
        const Wire a = g.add_const(va != 0), b = g.add_const(vb != 0);
        const Wire out = g.add_gate(kind, a, b);
        g.mark_output(out);
        const CompiledGraph c = CompiledGraph::compile(g);
        const Wire mapped = c.remap(out);
        ASSERT_TRUE(mapped.valid());
        const auto& n = c.graph.nodes()[mapped.id];
        EXPECT_TRUE(n.is_const) << gate_name(kind) << va << vb;
        EXPECT_EQ(n.const_value, eval_plain(kind, va != 0, vb != 0));
        EXPECT_EQ(c.graph.num_gates(), 0);
        EXPECT_EQ(c.stats.folded, 1);
      }
    }
  }
}

TEST(ConstantFolding, IdentityAndAbsorptionWithOneConstant) {
  struct Case {
    GateKind kind;
    bool konst;
    enum { kAliasX, kNotX, kConstF, kConstT } expect;
  };
  const Case cases[] = {
      {GateKind::kAnd, true, Case::kAliasX},
      {GateKind::kAnd, false, Case::kConstF},
      {GateKind::kNand, true, Case::kNotX},
      {GateKind::kNand, false, Case::kConstT},
      {GateKind::kOr, false, Case::kAliasX},
      {GateKind::kOr, true, Case::kConstT},
      {GateKind::kNor, false, Case::kNotX},
      {GateKind::kNor, true, Case::kConstF},
      {GateKind::kXor, false, Case::kAliasX},
      {GateKind::kXor, true, Case::kNotX},
      {GateKind::kXnor, true, Case::kAliasX},
      {GateKind::kXnor, false, Case::kNotX},
  };
  for (const Case& tc : cases) {
    for (const bool const_first : {false, true}) {
      GateGraph g;
      const Wire x = g.add_input();
      const Wire k = g.add_const(tc.konst);
      const Wire out = const_first ? g.add_gate(tc.kind, k, x)
                                   : g.add_gate(tc.kind, x, k);
      g.mark_output(out);
      const CompiledGraph c = CompiledGraph::compile(g);
      const Wire mapped = c.remap(out);
      ASSERT_TRUE(mapped.valid()) << gate_name(tc.kind);
      const auto& n = c.graph.nodes()[mapped.id];
      switch (tc.expect) {
        case Case::kAliasX:
          EXPECT_TRUE(n.is_input) << gate_name(tc.kind);
          break;
        case Case::kNotX:
          ASSERT_TRUE(n.is_gate()) << gate_name(tc.kind);
          EXPECT_EQ(n.kind, GateKind::kNot);
          EXPECT_TRUE(c.graph.nodes()[n.in[0]].is_input);
          break;
        case Case::kConstF:
        case Case::kConstT:
          ASSERT_TRUE(n.is_const) << gate_name(tc.kind);
          EXPECT_EQ(n.const_value, tc.expect == Case::kConstT);
          break;
      }
      EXPECT_EQ(c.stats.folded, 1) << gate_name(tc.kind);
    }
  }
}

TEST(ConstantFolding, MuxAndNotRules) {
  { // Constant select picks an arm.
    GateGraph g;
    const Wire a = g.add_input(), b = g.add_input();
    const Wire m1 = g.add_gate(GateKind::kMux, g.add_const(true), a, b);
    const Wire m0 = g.add_gate(GateKind::kMux, g.add_const(false), a, b);
    g.mark_output(m1);
    g.mark_output(m0);
    const CompiledGraph c = CompiledGraph::compile(g);
    EXPECT_EQ(c.remap(m1).id, c.remap(a).id);
    EXPECT_EQ(c.remap(m0).id, c.remap(b).id);
    EXPECT_EQ(c.graph.num_gates(), 0);
  }
  { // MUX(s, 1, 0) == s and MUX(s, 0, 1) == NOT s.
    GateGraph g;
    const Wire s = g.add_input();
    const Wire t = g.add_const(true), f = g.add_const(false);
    const Wire id = g.add_gate(GateKind::kMux, s, t, f);
    const Wire inv = g.add_gate(GateKind::kMux, s, f, t);
    g.mark_output(id);
    g.mark_output(inv);
    const CompiledGraph c = CompiledGraph::compile(g);
    EXPECT_EQ(c.remap(id).id, c.remap(s).id);
    const auto& n = c.graph.nodes()[c.remap(inv).id];
    ASSERT_TRUE(n.is_gate());
    EXPECT_EQ(n.kind, GateKind::kNot);
  }
  { // NOT of a constant.
    GateGraph g;
    const Wire out = g.add_gate(GateKind::kNot, g.add_const(false));
    g.mark_output(out);
    const CompiledGraph c = CompiledGraph::compile(g);
    const auto& n = c.graph.nodes()[c.remap(out).id];
    ASSERT_TRUE(n.is_const);
    EXPECT_TRUE(n.const_value);
  }
}

TEST(Cse, CommutedTwinsDeduplicate) {
  GateGraph g;
  const Wire a = g.add_input(), b = g.add_input();
  const Wire x1 = g.add_gate(GateKind::kXor, a, b);
  const Wire x2 = g.add_gate(GateKind::kXor, b, a); // commuted twin
  const Wire x3 = g.add_gate(GateKind::kXor, a, b); // literal twin
  const Wire n1 = g.add_gate(GateKind::kNot, a);
  const Wire n2 = g.add_gate(GateKind::kNot, a);
  g.mark_output(x1);
  g.mark_output(x2);
  g.mark_output(x3);
  g.mark_output(n1);
  g.mark_output(n2);
  const CompiledGraph c = CompiledGraph::compile(g);
  EXPECT_EQ(c.remap(x1).id, c.remap(x2).id);
  EXPECT_EQ(c.remap(x1).id, c.remap(x3).id);
  EXPECT_EQ(c.remap(n1).id, c.remap(n2).id);
  EXPECT_EQ(c.graph.num_gates(), 2); // one XOR + one NOT
  EXPECT_EQ(c.stats.cse_hits, 3);
}

TEST(Cse, MuxIsNotCommutative) {
  GateGraph g;
  const Wire s = g.add_input(), a = g.add_input(), b = g.add_input();
  const Wire m1 = g.add_gate(GateKind::kMux, s, a, b);
  const Wire m2 = g.add_gate(GateKind::kMux, s, b, a); // different circuit
  const Wire m3 = g.add_gate(GateKind::kMux, s, a, b); // true twin
  g.mark_output(m1);
  g.mark_output(m2);
  g.mark_output(m3);
  const CompiledGraph c = CompiledGraph::compile(g);
  EXPECT_NE(c.remap(m1).id, c.remap(m2).id);
  EXPECT_EQ(c.remap(m1).id, c.remap(m3).id);
  EXPECT_EQ(c.graph.num_gates(), 2);
}

TEST(Dce, OnlyTheOutputConeSurvives) {
  GateGraph g;
  const Wire a = g.add_input(), b = g.add_input();
  const Wire live = g.add_gate(GateKind::kAnd, a, b);
  const Wire dead1 = g.add_gate(GateKind::kOr, a, b);
  const Wire dead2 = g.add_gate(GateKind::kXor, dead1, b); // dead chain
  (void)dead2;
  g.mark_output(live);
  const CompiledGraph c = CompiledGraph::compile(g);
  EXPECT_EQ(c.graph.num_gates(), 1);
  EXPECT_EQ(c.stats.dead_removed, 2);
  EXPECT_TRUE(c.remap(live).valid());
  EXPECT_FALSE(c.remap(dead1).valid());
  EXPECT_FALSE(c.remap(dead2).valid());
  // Inputs survive regardless, preserving the run() binding contract.
  EXPECT_EQ(c.graph.num_inputs(), 2);
}

TEST(Dce, NoMarkedOutputsMeansEverythingLives) {
  GateGraph g;
  const Wire a = g.add_input(), b = g.add_input();
  (void)g.add_gate(GateKind::kAnd, a, b);
  (void)g.add_gate(GateKind::kOr, a, b);
  const CompiledGraph c = CompiledGraph::compile(g);
  EXPECT_EQ(c.graph.num_gates(), 2);
  EXPECT_EQ(c.stats.dead_removed, 0);
}

TEST(Optimizer, WordComparatorPairSharesXnorChain) {
  // greater_than and equal over the same words both build XNOR(x_i, y_i)
  // terms -- a real circuit where CSE must fire.
  CircuitBuilder b;
  const SymWord x = b.input_word(4), y = b.input_word(4);
  SymWordCircuits wc(b);
  const Wire gt = wc.greater_than(x, y);
  const Wire eq = wc.equal(x, y);
  b.mark_output(gt);
  b.mark_output(eq);
  const CompiledGraph c = b.compile(OptimizeOptions::bit_preserving());
  EXPECT_GT(c.stats.cse_hits, 0);
  EXPECT_LT(c.graph.num_gates(), b.graph().num_gates());
  EXPECT_LT(c.graph.bootstrap_count(), b.graph().bootstrap_count());
}

TEST(Optimizer, RecordedMultiplierFoldsConstantRows) {
  // The shift-and-add multiplier seeds its accumulator with constant zeros
  // and zero-fills shifted rows: folding must erase a large fraction of the
  // recorded bootstraps.
  CircuitBuilder b;
  const SymWord x = b.input_word(4), y = b.input_word(4);
  SymWordCircuits wc(b);
  const SymWord prod = wc.multiply(x, y);
  b.mark_output(prod);
  const CompiledGraph c = b.compile();
  EXPECT_GT(c.stats.folded, 0);
  EXPECT_LT(c.stats.bootstraps_after, c.stats.bootstraps_before);
  // Wavefronts must cover exactly the surviving gates.
  size_t covered = 0;
  for (const auto& front : c.graph.wavefronts()) covered += front.size();
  EXPECT_EQ(covered, static_cast<size_t>(c.graph.num_gates()));
}

TEST(SimBridge, DagShapeMatchesGraph) {
  CircuitBuilder b;
  const SymWord x = b.input_word(4), y = b.input_word(4);
  SymWordCircuits wc(b);
  const SymWord sum = wc.add(x, y, nullptr, /*with_carry_out=*/true);
  b.mark_output(sum);
  const CompiledGraph c = b.compile();
  const sim::GateDag dag = exec::to_gate_dag(c.graph);
  EXPECT_EQ(dag.gates.size(), static_cast<size_t>(c.graph.num_gates()));
  EXPECT_EQ(dag.total_bootstraps(), c.graph.bootstrap_count());
  // The ripple carry chain forces depth: critical path strictly above 1,
  // at or below the total.
  EXPECT_GT(dag.critical_path_bootstraps(), 1);
  EXPECT_LE(dag.critical_path_bootstraps(), dag.total_bootstraps());
  // Wavefront count of the graph bounds the DAG's critical path in gates.
  EXPECT_LE(static_cast<int64_t>(c.graph.wavefronts().size()),
            dag.total_bootstraps());
}

// ---------------------------------------------------------------------------
// Differential plaintext fuzz: random wide, irregular graphs compiled with
// every pass and with the bit-preserving subset must compute the recorded
// graph's plaintext on every marked output.
// ---------------------------------------------------------------------------

/// Plaintext value of every node of `g`; bit i of `assign` is input i. A LUT
/// reads its primary table, a LUTOUT its parent's table `aux` over the
/// parent's inputs, a FREEOR is OR.
std::vector<char> eval_graph(const GateGraph& g, uint64_t assign) {
  const auto& nodes = g.nodes();
  std::vector<char> v(nodes.size(), 0);
  for (int i = 0; i < g.num_inputs(); ++i) {
    v[static_cast<size_t>(g.inputs()[i])] = static_cast<char>((assign >> i) & 1);
  }
  const auto lut_index = [&](const exec::GateNode& n) {
    unsigned idx = 0;
    for (int j = 0; j < n.lut.k; ++j) {
      idx |= (v[static_cast<size_t>(n.in[j])] != 0 ? 1u : 0u) << j;
    }
    return idx;
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    const exec::GateNode& n = nodes[i];
    if (n.is_input) continue;
    if (n.is_const) {
      v[i] = n.const_value;
    } else if (n.kind == GateKind::kLut) {
      v[i] = lut_eval(n.lut.table, lut_index(n));
    } else if (n.kind == GateKind::kLutOut) {
      const exec::GateNode& parent = nodes[static_cast<size_t>(n.in[0])];
      v[i] = lut_eval(parent.lut.output(n.aux).table, lut_index(parent));
    } else {
      const auto in = [&](int j) {
        return j < n.fan_in() && v[static_cast<size_t>(n.in[j])] != 0;
      };
      v[i] = eval_plain(n.kind, in(0), in(1), in(2));
    }
  }
  return v;
}

/// A random graph mixing the shapes that make each pass fire: constants
/// (folding), commuted twins (CSE), single-consumer XOR/AND/OR chains
/// (rebalancing), full adders over shared inputs (cone fusion, multi-output
/// packing), word-wide MUX trees sharing their selects (MUX flattening),
/// and random gates over any earlier wire (reconvergent fan-out). Roughly
/// half the gate wires are marked; the rest are dead or interior.
GateGraph random_graph(Rng& rng) {
  GateGraph g;
  std::vector<Wire> pool; // wires later gates may read
  const int n_in = 3 + static_cast<int>(rng.uniform_below(10));
  for (int i = 0; i < n_in; ++i) pool.push_back(g.add_input());
  const Wire consts[2] = {g.add_const(false), g.add_const(true)};
  const auto pick = [&] {
    if (rng.uniform_below(16) == 0) return consts[rng.uniform_below(2)];
    // Half the picks from the newest wires (depth), half from anywhere.
    const uint32_t size = static_cast<uint32_t>(pool.size());
    const uint32_t recent = std::min<uint32_t>(size, 6);
    return rng.uniform_below(2) == 0 ? pool[size - 1 - rng.uniform_below(recent)]
                                     : pool[rng.uniform_below(size)];
  };
  const auto pick_var = [&] { // a non-constant wire
    Wire w = pick();
    while (w == consts[0] || w == consts[1]) w = pick();
    return w;
  };
  std::vector<Wire> gates;
  const auto add = [&](GateKind kind, Wire a, Wire b = {}, Wire c = {}) {
    const Wire w = g.add_gate(kind, a, b, c);
    gates.push_back(w);
    return w;
  };
  constexpr GateKind kKinds[] = {GateKind::kAnd, GateKind::kOr,
                                 GateKind::kNand, GateKind::kNor,
                                 GateKind::kXor, GateKind::kXnor,
                                 GateKind::kNot, GateKind::kMux};
  constexpr GateKind kAssoc[] = {GateKind::kXor, GateKind::kAnd,
                                 GateKind::kOr};
  const int motifs = 8 + static_cast<int>(rng.uniform_below(16));
  for (int m = 0; m < motifs; ++m) {
    switch (rng.uniform_below(6)) {
      case 0:
      case 1: { // random gates
        for (int k = 0; k < 3; ++k) {
          const GateKind kind = kKinds[rng.uniform_below(8)];
          pool.push_back(add(kind, pick(), kind == GateKind::kNot ? Wire{} : pick(),
                             kind == GateKind::kMux ? pick() : Wire{}));
        }
        break;
      }
      case 2: { // associative chain
        const GateKind kind = kAssoc[rng.uniform_below(3)];
        Wire acc = pick_var();
        const int len = 3 + static_cast<int>(rng.uniform_below(4));
        for (int k = 0; k < len; ++k) acc = add(kind, acc, pick_var());
        pool.push_back(acc);
        break;
      }
      case 3: { // full adder: sibling cones over one input set
        const Wire a = pick_var(), b = pick_var(), c = pick_var();
        const Wire axb = add(GateKind::kXor, a, b);
        pool.push_back(add(GateKind::kXor, axb, c));
        pool.push_back(add(GateKind::kOr, add(GateKind::kAnd, a, b),
                           add(GateKind::kAnd, c, axb)));
        break;
      }
      case 4: { // word-wide 4:1 MUX sharing two selects; roots are outputs
        const Wire s0 = pick_var(), s1 = pick_var();
        const int width = 1 + static_cast<int>(rng.uniform_below(4));
        for (int k = 0; k < width; ++k) {
          const Wire lo = add(GateKind::kMux, s0, pick_var(), pick_var());
          const Wire hi = add(GateKind::kMux, s0, pick_var(), pick_var());
          g.mark_output(add(GateKind::kMux, s1, hi, lo));
        }
        break;
      }
      default: { // a commuted twin of an earlier two-input gate
        const Wire a = pick(), b = pick();
        const GateKind kind = kAssoc[rng.uniform_below(3)];
        pool.push_back(add(kind, a, b));
        pool.push_back(add(kind, b, a));
        break;
      }
    }
  }
  for (const Wire w : gates) {
    if (rng.uniform_below(2) == 0) g.mark_output(w);
  }
  g.mark_output(gates.back());
  return g;
}

TEST(CompileFuzz, RandomGraphsKeepEveryOutputsPlaintext) {
  constexpr int kGraphs = 300;
  constexpr int kExhaustiveInputs = 10; // beyond: 2^10 sampled assignments
  Rng rng = test::test_rng(2024);
  OptimizeStats total;
  for (int gi = 0; gi < kGraphs; ++gi) {
    const GateGraph g = random_graph(rng);
    const CompiledGraph compiled[2] = {
        CompiledGraph::compile(g),
        CompiledGraph::compile(g, OptimizeOptions::bit_preserving())};
    total.cones_fused += compiled[0].stats.cones_fused;
    total.mux_trees_flattened += compiled[0].stats.mux_trees_flattened;
    total.luts_packed += compiled[0].stats.luts_packed;
    total.chains_rebalanced += compiled[0].stats.chains_rebalanced;
    total.folded += compiled[0].stats.folded;
    total.cse_hits += compiled[1].stats.cse_hits;
    total.dead_removed += compiled[1].stats.dead_removed;
    for (const CompiledGraph& c : compiled) {
      ASSERT_EQ(c.graph.num_inputs(), g.num_inputs());
      for (const int o : g.outputs()) {
        ASSERT_TRUE(c.remap(Wire{o}).valid()) << "graph " << gi << " wire " << o;
      }
    }
    const int n_in = g.num_inputs();
    const bool exhaustive = n_in <= kExhaustiveInputs;
    const uint64_t count = uint64_t{1} << std::min(n_in, kExhaustiveInputs);
    for (uint64_t t = 0; t < count; ++t) {
      const uint64_t assign =
          exhaustive ? t : (rng.next_u64() & ((uint64_t{1} << n_in) - 1));
      const std::vector<char> want = eval_graph(g, assign);
      for (int ci = 0; ci < 2; ++ci) {
        const CompiledGraph& c = compiled[ci];
        const std::vector<char> got = eval_graph(c.graph, assign);
        for (const int o : g.outputs()) {
          ASSERT_EQ(got[static_cast<size_t>(c.remap(Wire{o}).id)],
                    want[static_cast<size_t>(o)])
              << (ci == 0 ? "default" : "bit_preserving") << " compile, graph "
              << gi << ", inputs 0x" << std::hex << assign << std::dec
              << ", output wire " << o;
        }
      }
    }
  }
  // Every pass fired somewhere in the corpus.
  EXPECT_GT(total.cones_fused, 0);
  EXPECT_GT(total.mux_trees_flattened, 0);
  EXPECT_GT(total.luts_packed, 0);
  EXPECT_GT(total.chains_rebalanced, 0);
  EXPECT_GT(total.folded, 0);
  EXPECT_GT(total.cse_hits, 0);
  EXPECT_GT(total.dead_removed, 0);
  std::printf("corpus of %d graphs: fused %d, mux trees %d, packed %d, "
              "chains %d, folded %d, cse %d, dead %d\n",
              kGraphs, total.cones_fused, total.mux_trees_flattened,
              total.luts_packed, total.chains_rebalanced, total.folded,
              total.cse_hits, total.dead_removed);
}

// ---------------------------------------------------------------------------
// Crypto equivalence: recorded + optimized + wavefront-parallel vs the
// immediate-mode WordCircuits over identical ciphertext inputs.
// ---------------------------------------------------------------------------

TEST(Equivalence, BitPreservingPipelineMatchesImmediateMode) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  constexpr int kW = 4;

  CircuitBuilder b;
  const SymWord x = b.input_word(kW), y = b.input_word(kW);
  SymWordCircuits wc(b);
  const SymWord sum = wc.add(x, y, nullptr, /*with_carry_out=*/true);
  const SymWord diff = wc.sub(x, y);
  const Wire gt = wc.greater_than(x, y);
  const Wire eq = wc.equal(x, y);
  b.mark_output(sum);
  b.mark_output(diff);
  b.mark_output(gt);
  b.mark_output(eq);
  const CompiledGraph c = b.compile(OptimizeOptions::bit_preserving());
  EXPECT_LT(c.graph.num_gates(), b.graph().num_gates());

  BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  circuits::WordCircuits<DoubleFftEngine> iwc(ev);

  Rng value_rng = test::test_rng(31);
  for (int round = 0; round < 3; ++round) {
    const uint64_t vx = value_rng.uniform_below(1u << kW);
    const uint64_t vy = value_rng.uniform_below(1u << kW);
    Rng r1 = test::test_rng(500 + round), r2 = test::test_rng(500 + round),
        r3 = test::test_rng(500 + round);
    const auto enc_inputs = [&](Rng& rng) {
      std::vector<LweSample> in;
      for (const uint64_t v : {vx, vy}) {
        const EncWord e = circuits::encrypt_word(K.sk, v, kW, rng);
        in.insert(in.end(), e.bits.begin(), e.bits.end());
      }
      return in;
    };
    const BatchResult rp = par.run(c.graph, enc_inputs(r1));
    const BatchResult rs = seq.run(c.graph, enc_inputs(r2));
    // Parallel == sequential replay, bit for bit, over every wire.
    ASSERT_EQ(rp.values.size(), rs.values.size());
    for (size_t i = 0; i < rp.values.size(); ++i) {
      ASSERT_TRUE(same_sample(rp.values[i], rs.values[i])) << "wire " << i;
    }

    // Immediate mode over the same ciphertexts.
    const std::vector<LweSample> in = enc_inputs(r3);
    EncWord ex, ey;
    ex.bits.assign(in.begin(), in.begin() + kW);
    ey.bits.assign(in.begin() + kW, in.end());
    const EncWord isum = iwc.add(ex, ey, nullptr, /*with_carry_out=*/true);
    const EncWord idiff = iwc.sub(ex, ey);
    const LweSample igt = iwc.greater_than(ex, ey);
    const LweSample ieq = iwc.equal(ex, ey);
    for (int i = 0; i < isum.width(); ++i) {
      EXPECT_TRUE(same_sample(isum.bits[i], rp.at(c.remap(sum.bits[i]))))
          << "sum bit " << i;
    }
    for (int i = 0; i < idiff.width(); ++i) {
      EXPECT_TRUE(same_sample(idiff.bits[i], rp.at(c.remap(diff.bits[i]))))
          << "diff bit " << i;
    }
    EXPECT_TRUE(same_sample(igt, rp.at(c.remap(gt))));
    EXPECT_TRUE(same_sample(ieq, rp.at(c.remap(eq))));
  }
}

TEST(Equivalence, FullPipelineDecryptsCorrectlyAcrossBatch) {
  // With constant folding on, ciphertexts legitimately differ from the
  // unoptimized circuit (folded gates skip their bootstrap); plaintext
  // results must not. Runs as a 2-item batch to exercise the
  // (item x wavefront slice) task space.
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  constexpr int kW = 4;

  CircuitBuilder b;
  const SymWord x = b.input_word(kW), y = b.input_word(kW);
  SymWordCircuits wc(b);
  const SymWord prod = wc.multiply(x, y);
  const SymWord shifted = wc.shift_left(x, SymWord{{y.bits[0], y.bits[1]}});
  b.mark_output(prod);
  b.mark_output(shifted);
  const CompiledGraph c = b.compile();
  ASSERT_GT(c.stats.folded, 0);

  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  const struct { uint64_t x, y; } cases[] = {{5, 3}, {15, 2}};
  std::vector<std::vector<LweSample>> batch;
  Rng rng = test::test_rng(77);
  for (const auto& tc : cases) {
    std::vector<LweSample> in;
    for (const uint64_t v : {tc.x, tc.y}) {
      const EncWord e = circuits::encrypt_word(K.sk, v, kW, rng);
      in.insert(in.end(), e.bits.begin(), e.bits.end());
    }
    batch.push_back(std::move(in));
  }
  const std::vector<BatchResult> results = ex.run_batch(c.graph, std::move(batch));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(ex.last_stats().items, 2);
  for (size_t i = 0; i < results.size(); ++i) {
    EncWord p, s;
    for (const Wire w : prod.bits) p.bits.push_back(results[i].at(c.remap(w)));
    for (const Wire w : shifted.bits) s.bits.push_back(results[i].at(c.remap(w)));
    EXPECT_EQ(circuits::decrypt_word(K.sk, p),
              (cases[i].x * cases[i].y) & 0xF)
        << "item " << i;
    EXPECT_EQ(circuits::decrypt_word(K.sk, s),
              (cases[i].x << (cases[i].y & 3)) & 0xF)
        << "item " << i;
  }
}

} // namespace
} // namespace matcha
