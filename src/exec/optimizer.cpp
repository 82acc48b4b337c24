// The GateGraph optimization pipeline (gate_graph.h CompiledGraph::compile).
// Six passes, each a compacting rebuild composed through the wire map:
//
//   1. fold + CSE        constant folding and common-subexpression merging;
//   2. rebalance         single-consumer XOR/AND/OR chains become balanced
//                        trees (shrinks dependence depth, exposes 3-ary
//                        cones to fusion);
//   3. flatten MUX trees MUX trees sharing a select vector lower into
//                        minterm LUTs combined by bootstrap-free disjoint
//                        ORs -- the minterm tables only solve because the
//                        select decomposition proves combos unreachable
//                        (dc_mask), which is what makes MUX realizable as
//                        LUT logic at all;
//   4. cone fusion       greedy covering of gate cones by one-bootstrap LUT
//                        nodes, now encoding-aware: a cone may ask a
//                        producer to emit amplitude 1/16 when that makes an
//                        otherwise-unrealizable table (AND3, MAJ3 over raw
//                        gate inputs) solvable on the finer grid;
//   5. multi-output pack sibling LUTs over one input set merge into a
//                        single blind rotation with several sample
//                        extractions (a full adder's sum + carry share one
//                        bootstrap);
//   6. DCE               backward liveness from the marked outputs.
//
// Amplitude bookkeeping: `req[w]` pins wire w's encoding (0 = undecided,
// else log2 of the amplitude denominator). Committing a cone or a pack locks
// the chosen amplitude of every cut wire -- including the stock 1/8 -- so a
// later rewrite cannot flip an encoding some solved spec already depends on.
// At rebuild time, a kept producer whose wire was re-encoded is patched (a
// single-output LUT's out-amplitude is a pure test-vector rescale) or
// converted to a two-input LUT (plain binary gates; always solvable, the
// grid-3 gate table just relabels its output amplitude).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/gate_graph.h"
#include "noise/model.h"
#include "tfhe/params.h"

namespace matcha::exec {
namespace {

/// Plaintext truth table of one gate over fully known inputs.
bool eval_plain(GateKind kind, bool a, bool b, bool c) {
  switch (kind) {
    case GateKind::kNand: return !(a && b);
    case GateKind::kAnd: return a && b;
    case GateKind::kOr: return a || b;
    case GateKind::kNor: return !(a || b);
    case GateKind::kXor: return a != b;
    case GateKind::kXnor: return a == b;
    case GateKind::kNot: return !a;
    case GateKind::kMux: return a ? b : c;
    case GateKind::kFreeOr: return a || b; // operands proven disjoint
    case GateKind::kLut: break;    // handled by node_eval (needs the table)
    case GateKind::kLutOut: break; // value lives in the parent's extra table
  }
  return false;
}

/// Plaintext evaluation of one node over its operand values (LUT-aware).
bool node_eval(const GateNode& n, const std::array<bool, 4>& v) {
  assert(n.kind != GateKind::kLutOut &&
         "secondary LUT outputs are not functions of their operand bit");
  if (n.kind == GateKind::kLut) {
    unsigned idx = 0;
    for (int i = 0; i < n.lut.k; ++i) idx |= (v[static_cast<size_t>(i)] ? 1u : 0u) << i;
    return lut_eval(n.lut.table, idx);
  }
  return eval_plain(n.kind, v[0], v[1], v[2]);
}

// ---------------------------------------------------------------------------
// Noise budgets. Defaults match both shipped parameter sets; with explicit
// parameters the caps come from the analytic model, and every solved spec is
// re-checked against the reference decode-failure bound (debug builds).
// ---------------------------------------------------------------------------

struct SolveBudgets {
  int b3 = kLutMaxWeightNorm;
  int b4 = kLutGrid4WeightNorm;
};

SolveBudgets make_budgets(const OptimizeOptions& opts) {
  SolveBudgets b;
  if (!opts.noise_params) return b;
  b.b3 = noise::lut_weight_budget(*opts.noise_params, opts.unroll_m, 3);
  b.b4 = noise::lut_weight_budget(*opts.noise_params, opts.unroll_m, 4);
  assert(b.b3 >= 8 && "parameter set cannot decode even the stock XOR combo");
  return b;
}

/// Decode-failure check of one solved cone: its weighted combo noise, read
/// against its grid's margin, must not fail more often than the classic gate
/// bound that lut_weight_budget derives the caps from.
void assert_cone_noise(const LutSpec& spec, const std::array<int16_t, 4>& in_var,
                       const OptimizeOptions& opts) {
#ifndef NDEBUG
  if (!opts.noise_params) return;
  double var = 0;
  for (int i = 0; i < spec.k; ++i) {
    var += static_cast<double>(spec.w[static_cast<size_t>(i)]) *
           spec.w[static_cast<size_t>(i)] * in_var[static_cast<size_t>(i)];
  }
  const double sigma =
      noise::predict(*opts.noise_params, opts.unroll_m).total_std;
  const double margin =
      1.0 / static_cast<double>(int64_t{1} << (spec.grid_log + 1));
  const double fail = noise::failure_probability(std::sqrt(var) * sigma, margin);
  const double fail_ref =
      std::max(noise::failure_probability(std::sqrt(12.0) * sigma, 1.0 / 16.0),
               std::pow(2.0, -20.0));
  assert(fail <= fail_ref * (1.0 + 1e-9) &&
         "solved LUT cone exceeds the decode-failure budget");
#else
  (void)spec;
  (void)in_var;
  (void)opts;
#endif
}

/// Per-wire noise-variance multiplicity in bootstrap-output units: inputs
/// and gate outputs carry one unit, constants none, NOT passes its operand
/// through, and a FREEOR sum accumulates both operands' variances.
std::vector<int> wire_variance(const GateGraph& g) {
  const auto& nodes = g.nodes();
  std::vector<int> var(nodes.size(), 1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const GateNode& n = nodes[i];
    if (n.is_const) {
      var[i] = 0;
    } else if (!n.is_gate()) {
      var[i] = 1;
    } else if (n.kind == GateKind::kNot) {
      var[i] = var[static_cast<size_t>(n.in[0])];
    } else if (n.kind == GateKind::kFreeOr) {
      var[i] = var[static_cast<size_t>(n.in[0])] +
               var[static_cast<size_t>(n.in[1])];
    } else {
      var[i] = 1; // fresh bootstrap output
    }
  }
  return var;
}

int16_t clamp_var(int v) {
  return static_cast<int16_t>(std::min(v, 32767));
}

/// Re-encode a kept plain binary gate as a two-input LUT honoring the pinned
/// operand/output amplitudes. Always solvable: the grid-3 gate embedding
/// exists for every GateKind and a single-output spec's amplitude is a pure
/// test-vector rescale; amp-1/16 operands were only ever granted to tables
/// the finer grid realizes (tfhe/lut.h).
LutSpec convert_binary_spec(GateKind kind, int8_t a0, int8_t a1, int8_t out_amp,
                            int var0, int var1, const SolveBudgets& budgets,
                            const OptimizeOptions& opts) {
  LutConeProblem prob;
  prob.k = 2;
  uint16_t t = 0;
  for (unsigned b = 0; b < 4; ++b) {
    if (eval_plain(kind, (b & 1u) != 0, (b & 2u) != 0, false)) {
      t |= static_cast<uint16_t>(1u << b);
    }
  }
  prob.tables[0] = t;
  prob.in_amp_log[0] = a0;
  prob.in_amp_log[1] = a1;
  prob.in_var[0] = clamp_var(var0);
  prob.in_var[1] = clamp_var(var1);
  prob.out_amp_log[0] = out_amp;
  prob.budget_grid3 = budgets.b3;
  prob.budget_grid4 = budgets.b4;
  const std::optional<LutSpec> spec = solve_lut_cone(prob);
  if (!spec) {
    throw std::logic_error("re-encoded binary gate has no LUT embedding");
  }
  assert_cone_noise(*spec, prob.in_var, opts);
  return *spec;
}

// ---------------------------------------------------------------------------
// Pass 1: constant folding + CSE.
// ---------------------------------------------------------------------------

/// What a folding rule decided for one gate.
struct Fold {
  enum class Kind { kKeep, kConst, kAlias, kNotOf } kind = Kind::kKeep;
  bool value = false; ///< kConst
  int wire = -1;      ///< kAlias / kNotOf: new-graph wire id

  static Fold keep() { return {}; }
  static Fold constant(bool v) { return {Kind::kConst, v, -1}; }
  static Fold alias(int w) { return {Kind::kAlias, false, w}; }
  static Fold not_of(int w) { return {Kind::kNotOf, false, w}; }
};

/// Constant-fold one gate whose operands live in the rebuilt graph. `known`
/// holds the operands' plaintext values where the producer is a const node.
Fold fold_gate(const GateNode& n, const std::array<int, 4>& in,
               const std::array<const bool*, 4>& known) {
  const GateKind kind = n.kind;
  if (kind == GateKind::kNot) {
    return known[0] ? Fold::constant(!*known[0]) : Fold::keep();
  }
  if (kind == GateKind::kLutOut) return Fold::keep();
  if (kind == GateKind::kLut) {
    // Fold only when every input is known (partial-application table
    // specialization is left on the table).
    std::array<bool, 4> v{};
    for (int i = 0; i < n.lut.k; ++i) {
      if (!known[static_cast<size_t>(i)]) return Fold::keep();
      v[static_cast<size_t>(i)] = *known[static_cast<size_t>(i)];
    }
    return Fold::constant(node_eval(n, v));
  }
  if (kind == GateKind::kMux) {
    if (known[0]) return Fold::alias(*known[0] ? in[1] : in[2]);
    if (known[1] && known[2]) {
      if (*known[1] == *known[2]) return Fold::constant(*known[1]);
      return *known[1] ? Fold::alias(in[0]) : Fold::not_of(in[0]);
    }
    return Fold::keep();
  }
  if (kind == GateKind::kFreeOr) {
    // Disjointness: a known-true operand forces the other false.
    if (known[0]) return *known[0] ? Fold::constant(true) : Fold::alias(in[1]);
    if (known[1]) return *known[1] ? Fold::constant(true) : Fold::alias(in[0]);
    return Fold::keep();
  }
  if (known[0] && known[1]) {
    return Fold::constant(eval_plain(kind, *known[0], *known[1], false));
  }
  if (!known[0] && !known[1]) return Fold::keep();
  // One known operand: every binary kind's linear combination is symmetric,
  // so normalize to (unknown x, known k).
  const int x = known[0] ? in[1] : in[0];
  const bool k = known[0] ? *known[0] : *known[1];
  switch (kind) {
    case GateKind::kAnd: return k ? Fold::alias(x) : Fold::constant(false);
    case GateKind::kNand: return k ? Fold::not_of(x) : Fold::constant(true);
    case GateKind::kOr: return k ? Fold::constant(true) : Fold::alias(x);
    case GateKind::kNor: return k ? Fold::constant(false) : Fold::not_of(x);
    case GateKind::kXor: return k ? Fold::not_of(x) : Fold::alias(x);
    case GateKind::kXnor: return k ? Fold::alias(x) : Fold::not_of(x);
    default: return Fold::keep();
  }
}

/// CSE key: kind + canonicalized operands + the full LUT payload (two specs
/// differing in any encoding field execute different rotations, so every
/// field participates).
using CseKey = std::array<int64_t, 8>;

CseKey make_cse_key(const GateNode& proto, const std::array<int, 4>& in) {
  CseKey key{static_cast<int64_t>(proto.kind), in[0], in[1], in[2], in[3],
             0, 0, 0};
  if (proto.kind == GateKind::kLut) {
    const LutSpec& s = proto.lut;
    key[5] = static_cast<int64_t>(s.table) |
             static_cast<int64_t>(s.dc_mask) << 16 |
             static_cast<int64_t>(s.grid_log) << 32 |
             static_cast<int64_t>(s.out_amp_log) << 36 |
             static_cast<int64_t>(s.n_out) << 40;
    for (int i = 0; i < 4; ++i) {
      key[6] |= (static_cast<int64_t>(s.w[static_cast<size_t>(i)]) + 8)
                    << (5 * i) |
                static_cast<int64_t>(s.in_amp_log[static_cast<size_t>(i)])
                    << (20 + 3 * i);
    }
    for (int i = 0; i < kLutMaxOutputs - 1; ++i) {
      const LutOutput& o = s.extra[static_cast<size_t>(i)];
      key[7] |= (static_cast<int64_t>(o.table) |
                 static_cast<int64_t>(o.slot_shift) << 16 |
                 static_cast<int64_t>(o.amp_log) << 20)
                << (24 * i);
    }
  } else if (proto.kind == GateKind::kLutOut) {
    key[5] = proto.aux;
  }
  return key;
}

/// Forward rebuild: fold + CSE. `map[i]` is old node i's wire in `out`.
OptimizeStats fold_and_cse(const GateGraph& g, const OptimizeOptions& opts,
                           GateGraph& out, std::vector<int>& map) {
  OptimizeStats stats;
  stats.gates_before = g.num_gates();
  stats.bootstraps_before = g.bootstrap_count();
  map.assign(g.nodes().size(), -1);
  std::map<CseKey, int> seen;

  const auto emit_node = [&](const GateNode& proto, std::array<int, 4> in) -> int {
    if ((is_binary_gate(proto.kind) || proto.kind == GateKind::kFreeOr) &&
        in[0] > in[1]) {
      std::swap(in[0], in[1]);
    }
    const CseKey key = make_cse_key(proto, in);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      ++stats.cse_hits;
      return it->second;
    }
    const int id = out.clone_gate(proto, in).id;
    seen.emplace(key, id);
    return id;
  };

  for (size_t i = 0; i < g.nodes().size(); ++i) {
    const GateNode& n = g.nodes()[i];
    if (n.is_input) {
      map[i] = out.add_input().id;
      continue;
    }
    if (n.is_const) {
      map[i] = out.add_const(n.const_value).id;
      continue;
    }
    std::array<int, 4> in{-1, -1, -1, -1};
    std::array<const bool*, 4> known{nullptr, nullptr, nullptr, nullptr};
    for (int j = 0; j < n.fan_in(); ++j) {
      in[j] = map[n.in[j]];
      assert(in[j] >= 0 && "operand folded away before its consumer");
      const GateNode& op = out.nodes()[in[j]];
      if (op.is_const) known[j] = &op.const_value;
    }
    Fold f = opts.fold_constants ? fold_gate(n, in, known) : Fold::keep();
    switch (f.kind) {
      case Fold::Kind::kKeep:
        map[i] = emit_node(n, in);
        break;
      case Fold::Kind::kConst:
        ++stats.folded;
        map[i] = out.add_const(f.value).id;
        break;
      case Fold::Kind::kAlias:
        ++stats.folded;
        map[i] = f.wire;
        break;
      case Fold::Kind::kNotOf: {
        ++stats.folded;
        GateNode inv;
        inv.kind = GateKind::kNot;
        map[i] = emit_node(inv, {f.wire, -1, -1, -1});
        break;
      }
    }
  }
  for (const int o : g.outputs()) out.mark_output(Wire{map[o]});
  return stats;
}

// ---------------------------------------------------------------------------
// Pass 2: associative-chain rebalancing. A maximal single-consumer chain of
// one XOR/AND/OR kind is gathered into its leaf list and rebuilt as a
// balanced binary tree: same value (associativity + commutativity), depth
// log2(n) instead of n - 1, and the subtrees are exactly the 2-3 leaf
// clusters cone fusion packs into one bootstrap.
// ---------------------------------------------------------------------------

bool associative_kind(GateKind k) {
  return k == GateKind::kXor || k == GateKind::kAnd || k == GateKind::kOr;
}

void rebalance_chains(const GateGraph& g, GateGraph& out, std::vector<int>& map,
                      OptimizeStats& stats) {
  const auto& nodes = g.nodes();
  const int n = g.num_nodes();
  const auto cons = g.dataflow_info().consumers;
  std::vector<char> is_output(static_cast<size_t>(n), 0);
  for (const int o : g.outputs()) is_output[static_cast<size_t>(o)] = 1;

  // A chain-interior node feeds exactly one consumer of its own kind and is
  // not externally observed -- its intermediate value can vanish.
  std::vector<char> interior(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate() || !associative_kind(nd.kind) ||
        is_output[static_cast<size_t>(i)]) {
      continue;
    }
    if (cons[static_cast<size_t>(i)].size() != 1) continue;
    const GateNode& u = nodes[static_cast<size_t>(cons[static_cast<size_t>(i)][0])];
    if (u.is_gate() && u.kind == nd.kind) interior[static_cast<size_t>(i)] = 1;
  }
  const auto chains_into = [&](int op, GateKind kind) {
    return nodes[static_cast<size_t>(op)].is_gate() &&
           interior[static_cast<size_t>(op)] &&
           nodes[static_cast<size_t>(op)].kind == kind;
  };

  map.assign(static_cast<size_t>(n), -1);
  const std::function<void(int, std::vector<int>&)> gather =
      [&](int id, std::vector<int>& leaves) {
        const GateNode& nd = nodes[static_cast<size_t>(id)];
        for (int j = 0; j < 2; ++j) {
          const int op = nd.in[static_cast<size_t>(j)];
          if (chains_into(op, nd.kind)) {
            gather(op, leaves);
          } else {
            leaves.push_back(op);
          }
        }
      };
  const std::function<int(GateKind, const std::vector<int>&, size_t, size_t)>
      build = [&](GateKind kind, const std::vector<int>& leaves, size_t lo,
                  size_t hi) -> int {
    if (hi - lo == 1) {
      const int w = map[static_cast<size_t>(leaves[lo])];
      assert(w >= 0 && "chain leaf not yet rebuilt");
      return w;
    }
    const size_t mid = lo + (hi - lo) / 2;
    const int l = build(kind, leaves, lo, mid);
    const int r = build(kind, leaves, mid, hi);
    return out.add_gate(kind, Wire{l}, Wire{r}).id;
  };

  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (nd.is_input) {
      map[static_cast<size_t>(i)] = out.add_input().id;
      continue;
    }
    if (nd.is_const) {
      map[static_cast<size_t>(i)] = out.add_const(nd.const_value).id;
      continue;
    }
    if (interior[static_cast<size_t>(i)]) continue; // merged into its root
    if (associative_kind(nd.kind) &&
        (chains_into(nd.in[0], nd.kind) || chains_into(nd.in[1], nd.kind))) {
      std::vector<int> leaves;
      gather(i, leaves);
      ++stats.chains_rebalanced;
      map[static_cast<size_t>(i)] = build(nd.kind, leaves, 0, leaves.size());
      continue;
    }
    std::array<int, 4> in{-1, -1, -1, -1};
    for (int j = 0; j < nd.fan_in(); ++j) {
      in[static_cast<size_t>(j)] = map[static_cast<size_t>(nd.in[j])];
    }
    map[static_cast<size_t>(i)] = out.clone_gate(nd, in).id;
  }
  for (const int o : g.outputs()) {
    out.mark_output(Wire{map[static_cast<size_t>(o)]});
  }
}

// ---------------------------------------------------------------------------
// Pass 3: MUX-tree flattening. A tree of MUX nodes selecting among <= 16
// leaves by l <= 4 select bits is one big multiplexer; lower it into
//   out = FREEOR_p ( minterm_p(selects) AND leaf_p )
// where minterm_p is the p-th select combination. Exactly one minterm fires,
// so the OR is disjoint: bootstrap-free additions (kFreeOr). The minterm
// products build as balanced LUT trees at amplitude 1/16; every root sharing
// the same select tree reuses them, which is where the bootstrap count drops
// below 2 per absorbed MUX. The FREEOR sum's variance is the term count, so
// only roots with no gate consumers (circuit outputs, margin 1/8) flatten.
// ---------------------------------------------------------------------------

using Lits = std::vector<std::pair<int, bool>>; ///< (select wire, polarity)

/// Solve (and memoize) the minterm product LUT chain for `lits`, counting
/// newly planned bootstraps into `fresh`. Layout: 2 literals resolve as one
/// LUT over both selects; 3 as AND(minterm2 at 1/16, literal); 4 as
/// AND(minterm2, minterm2) -- depth 2 for 4 selects, the depth win the
/// rewrite exists for.
bool plan_minterm(const Lits& lits, const std::vector<int>& vars,
                  std::map<Lits, LutSpec>& reg, int& fresh,
                  const SolveBudgets& budgets, const OptimizeOptions& opts) {
  if (reg.count(lits)) return true;
  LutConeProblem prob;
  prob.k = 2;
  prob.budget_grid3 = budgets.b3;
  prob.budget_grid4 = budgets.b4;
  prob.out_amp_log[0] = 4;
  if (lits.size() == 2) {
    uint16_t t = 0;
    for (unsigned b = 0; b < 4; ++b) {
      if (((b & 1u) != 0) == lits[0].second &&
          ((b & 2u) != 0) == lits[1].second) {
        t |= static_cast<uint16_t>(1u << b);
      }
    }
    prob.tables[0] = t;
    prob.in_amp_log[0] = 3;
    prob.in_amp_log[1] = 3;
    prob.in_var[0] = clamp_var(vars[static_cast<size_t>(lits[0].first)]);
    prob.in_var[1] = clamp_var(vars[static_cast<size_t>(lits[1].first)]);
  } else if (lits.size() == 3) {
    if (!plan_minterm(Lits(lits.begin(), lits.begin() + 2), vars, reg, fresh,
                      budgets, opts)) {
      return false;
    }
    uint16_t t = 0;
    for (unsigned b = 0; b < 4; ++b) {
      if ((b & 1u) != 0 && ((b & 2u) != 0) == lits[2].second) {
        t |= static_cast<uint16_t>(1u << b);
      }
    }
    prob.tables[0] = t;
    prob.in_amp_log[0] = 4;
    prob.in_amp_log[1] = 3;
    prob.in_var[1] = clamp_var(vars[static_cast<size_t>(lits[2].first)]);
  } else {
    assert(lits.size() == 4);
    if (!plan_minterm(Lits(lits.begin(), lits.begin() + 2), vars, reg, fresh,
                      budgets, opts) ||
        !plan_minterm(Lits(lits.begin() + 2, lits.end()), vars, reg, fresh,
                      budgets, opts)) {
      return false;
    }
    prob.tables[0] = 0b1000; // AND of the two half-minterms
    prob.in_amp_log[0] = 4;
    prob.in_amp_log[1] = 4;
  }
  const std::optional<LutSpec> spec = solve_lut_cone(prob);
  if (!spec) return false;
  assert_cone_noise(*spec, prob.in_var, opts);
  reg.emplace(lits, *spec);
  ++fresh;
  return true;
}

void flatten_mux_trees(const GateGraph& g, GateGraph& out,
                       std::vector<int>& map, OptimizeStats& stats,
                       const SolveBudgets& budgets,
                       const OptimizeOptions& opts) {
  const auto& nodes = g.nodes();
  const int n = g.num_nodes();
  const auto cons = g.dataflow_info().consumers;
  std::vector<char> is_output(static_cast<size_t>(n), 0);
  for (const int o : g.outputs()) is_output[static_cast<size_t>(o)] = 1;
  const std::vector<int> vars = wire_variance(g);

  // Tree-interior MUX: unobserved, feeding exactly one MUX through a data
  // edge (a select edge keeps it a root -- its value is consumed as a bit).
  std::vector<char> interior(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate() || nd.kind != GateKind::kMux ||
        is_output[static_cast<size_t>(i)]) {
      continue;
    }
    if (cons[static_cast<size_t>(i)].size() != 1) continue;
    const int u = cons[static_cast<size_t>(i)][0];
    const GateNode& un = nodes[static_cast<size_t>(u)];
    if (un.kind == GateKind::kMux && (un.in[1] == i || un.in[2] == i)) {
      interior[static_cast<size_t>(i)] = 1;
    }
  }

  struct RootPlan {
    int root = 0;
    std::vector<Lits> paths;      ///< select literals per leaf, root-first
    std::vector<int> leaves;      ///< data wire per path
    std::vector<int> absorbed;    ///< the MUX nodes this flattening removes
    std::vector<LutSpec> term_specs; ///< filled on commit
  };
  std::vector<RootPlan> roots;
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate() || nd.kind != GateKind::kMux ||
        interior[static_cast<size_t>(i)]) {
      continue;
    }
    // FREEOR output variance equals the term count, which only the circuit
    // outputs' 1/8 decode margin absorbs -- roots feeding gates keep their
    // MUX form.
    if (!cons[static_cast<size_t>(i)].empty()) continue;
    RootPlan rp;
    rp.root = i;
    bool ok = true;
    Lits prefix;
    const std::function<void(int)> expand = [&](int id) {
      const GateNode& m = nodes[static_cast<size_t>(id)];
      rp.absorbed.push_back(id);
      for (int branch = 0; branch < 2; ++branch) {
        const int child = m.in[static_cast<size_t>(branch == 0 ? 1 : 2)];
        prefix.emplace_back(m.in[0], branch == 0);
        const GateNode& cn = nodes[static_cast<size_t>(child)];
        if (prefix.size() < 4 && cn.is_gate() && cn.kind == GateKind::kMux &&
            interior[static_cast<size_t>(child)]) {
          expand(child);
        } else {
          if (cn.is_const) ok = false; // fold's job; don't burn LUTs on it
          rp.paths.push_back(prefix);
          rp.leaves.push_back(child);
        }
        prefix.pop_back();
      }
    };
    expand(i);
    if (!ok || rp.absorbed.size() < 2) continue; // lone MUX never profits
    roots.push_back(std::move(rp));
  }

  // Group roots by select-tree signature: identical select structure means
  // identical minterms, amortized across the group (a word-wide mux).
  std::map<std::vector<Lits>, std::vector<size_t>> groups;
  for (size_t ri = 0; ri < roots.size(); ++ri) {
    groups[roots[ri].paths].push_back(ri);
  }

  std::map<Lits, LutSpec> mt_reg; ///< committed minterm plans, global
  std::vector<int> plan_of(static_cast<size_t>(n), -1);
  std::vector<char> absorbed_flag(static_cast<size_t>(n), 0);
  for (const auto& [sig, idxs] : groups) {
    std::map<Lits, LutSpec> reg = mt_reg; // rollback copy
    int fresh = 0;
    int before = 0;
    int terms = 0;
    bool ok = true;
    std::vector<std::vector<LutSpec>> tspecs(idxs.size());
    for (size_t gi = 0; gi < idxs.size() && ok; ++gi) {
      const RootPlan& rp = roots[idxs[gi]];
      before += 2 * static_cast<int>(rp.absorbed.size());
      for (size_t pi = 0; pi < rp.paths.size() && ok; ++pi) {
        const Lits& path = rp.paths[pi];
        LutConeProblem prob;
        prob.k = 2;
        prob.budget_grid3 = budgets.b3;
        prob.budget_grid4 = budgets.b4;
        prob.out_amp_log[0] = 3;
        if (path.size() == 1) {
          uint16_t t = 0;
          for (unsigned b = 0; b < 4; ++b) {
            if (((b & 1u) != 0) == path[0].second && (b & 2u) != 0) {
              t |= static_cast<uint16_t>(1u << b);
            }
          }
          prob.tables[0] = t;
          prob.in_amp_log[0] = 3;
          prob.in_amp_log[1] = 3;
          prob.in_var[0] = clamp_var(vars[static_cast<size_t>(path[0].first)]);
        } else {
          if (!plan_minterm(path, vars, reg, fresh, budgets, opts)) {
            ok = false;
            break;
          }
          prob.tables[0] = 0b1000; // minterm AND leaf
          prob.in_amp_log[0] = 4;
          prob.in_amp_log[1] = 3;
        }
        prob.in_var[1] =
            clamp_var(vars[static_cast<size_t>(rp.leaves[pi])]);
        const std::optional<LutSpec> spec = solve_lut_cone(prob);
        if (!spec) {
          ok = false;
          break;
        }
        assert_cone_noise(*spec, prob.in_var, opts);
        tspecs[gi].push_back(*spec);
        ++terms;
      }
    }
    if (!ok || fresh + terms >= before) continue;
    mt_reg = std::move(reg);
    for (size_t gi = 0; gi < idxs.size(); ++gi) {
      RootPlan& rp = roots[idxs[gi]];
      rp.term_specs = std::move(tspecs[gi]);
      plan_of[static_cast<size_t>(rp.root)] = static_cast<int>(idxs[gi]);
      for (const int a : rp.absorbed) {
        absorbed_flag[static_cast<size_t>(a)] = 1;
      }
      ++stats.mux_trees_flattened;
    }
  }

  // Rebuild: committed roots become their minterm/term/FREEOR network at the
  // root's position (every select and leaf has a smaller id); the interiors
  // they absorbed vanish.
  map.assign(static_cast<size_t>(n), -1);
  std::map<Lits, int> emitted;
  const std::function<int(const Lits&)> emit_minterm =
      [&](const Lits& lits) -> int {
    const auto hit = emitted.find(lits);
    if (hit != emitted.end()) return hit->second;
    const LutSpec& spec = mt_reg.at(lits);
    std::array<Wire, 2> ins;
    if (lits.size() == 2) {
      ins = {Wire{map[static_cast<size_t>(lits[0].first)]},
             Wire{map[static_cast<size_t>(lits[1].first)]}};
    } else if (lits.size() == 3) {
      ins = {Wire{emit_minterm(Lits(lits.begin(), lits.begin() + 2))},
             Wire{map[static_cast<size_t>(lits[2].first)]}};
    } else {
      ins = {Wire{emit_minterm(Lits(lits.begin(), lits.begin() + 2))},
             Wire{emit_minterm(Lits(lits.begin() + 2, lits.end()))}};
    }
    const int id = out.add_lut(ins, spec).id;
    emitted.emplace(lits, id);
    return id;
  };
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (nd.is_input) {
      map[static_cast<size_t>(i)] = out.add_input().id;
      continue;
    }
    if (nd.is_const) {
      map[static_cast<size_t>(i)] = out.add_const(nd.const_value).id;
      continue;
    }
    if (absorbed_flag[static_cast<size_t>(i)] &&
        plan_of[static_cast<size_t>(i)] < 0) {
      continue; // interior of a committed tree
    }
    if (plan_of[static_cast<size_t>(i)] >= 0) {
      const RootPlan& rp = roots[static_cast<size_t>(plan_of[static_cast<size_t>(i)])];
      int acc = -1;
      for (size_t pi = 0; pi < rp.paths.size(); ++pi) {
        const Lits& path = rp.paths[pi];
        const int leaf = map[static_cast<size_t>(rp.leaves[pi])];
        assert(leaf >= 0 && "mux leaf rebuilt after its root");
        int first;
        if (path.size() == 1) {
          first = map[static_cast<size_t>(path[0].first)];
        } else {
          first = emit_minterm(path);
        }
        const std::array<Wire, 2> ins{Wire{first}, Wire{leaf}};
        const int tw = out.add_lut(ins, rp.term_specs[pi]).id;
        acc = acc < 0
                  ? tw
                  : out.add_gate(GateKind::kFreeOr, Wire{acc}, Wire{tw}).id;
      }
      map[static_cast<size_t>(i)] = acc;
      continue;
    }
    std::array<int, 4> in{-1, -1, -1, -1};
    for (int j = 0; j < nd.fan_in(); ++j) {
      in[static_cast<size_t>(j)] = map[static_cast<size_t>(nd.in[j])];
    }
    map[static_cast<size_t>(i)] = out.clone_gate(nd, in).id;
  }
  for (const int o : g.outputs()) {
    out.mark_output(Wire{map[static_cast<size_t>(o)]});
  }
}

// ---------------------------------------------------------------------------
// Pass 4: LUT cone fusion. Greedy covering in reverse topological order:
// each live gate roots a cone that repeatedly absorbs one of its frontier
// ("cut") gates, as long as the cut stays within kLutMaxFanIn and the cone's
// truth table stays realizable as a single functional bootstrap (tfhe/lut.h).
// A frontier gate may be absorbed even when it has consumers outside the
// cone (logic duplication, as in FPGA LUT covering) -- it only counts toward
// the cone's profit once every consumer is inside fused cones, at which
// point it is retired. A cone commits when it retires at least one
// bootstrap. Encoding-awareness: a cut wire whose producer can re-emit at
// amplitude 1/16 and whose every live consumer tolerates it is offered to
// the solver as re-encodable; whatever amplitude the solver picks is locked.
// ---------------------------------------------------------------------------

struct Cone {
  std::vector<int> cut; ///< leaf wires, in LUT input order
  LutSpec spec;
};

/// Plaintext value of `id` within a cone, given the cut assignment `bits`
/// (bit i of `bits` is the value of cone.cut[i]). Everything reachable from
/// the root without crossing the cut is a cone member or a constant.
/// `memo` caches member values (keyed by node id) so reconvergent cones
/// evaluate each member once instead of once per root-to-leaf path.
bool eval_in_cone(const GateGraph& g, const std::vector<int>& cut,
                  unsigned bits, int id, std::map<int, bool>& memo) {
  for (size_t i = 0; i < cut.size(); ++i) {
    if (cut[i] == id) return ((bits >> i) & 1u) != 0;
  }
  const GateNode& n = g.nodes()[static_cast<size_t>(id)];
  if (n.is_const) return n.const_value;
  assert(n.is_gate() && "cone frontier must cover every non-const ancestor");
  const auto hit = memo.find(id);
  if (hit != memo.end()) return hit->second;
  std::array<bool, 4> v{};
  for (int j = 0; j < n.fan_in(); ++j) {
    v[static_cast<size_t>(j)] = eval_in_cone(g, cut, bits, n.in[j], memo);
  }
  const bool r = node_eval(n, v);
  memo.emplace(id, r);
  return r;
}

/// Truth table of the cone rooted at `root` over the cut, don't-care
/// discovery (combos a member FREEOR or member LUT dc_mask proves
/// unreachable), then the weight/amplitude/grid search under the pinned
/// encodings. nullopt when the cut is oversized or no consistent phase
/// embedding exists.
std::optional<LutSpec> realize_cone(const GateGraph& g, int root,
                                    const std::vector<int>& cut,
                                    const std::vector<int>& members,
                                    const std::vector<int8_t>& req,
                                    const std::vector<int>& vars,
                                    const std::vector<char>& flex,
                                    const SolveBudgets& budgets,
                                    const OptimizeOptions& opts) {
  if (cut.empty() || cut.size() > static_cast<size_t>(kLutMaxFanIn)) {
    return std::nullopt;
  }
  LutConeProblem prob;
  prob.k = static_cast<int>(cut.size());
  prob.budget_grid3 = budgets.b3;
  prob.budget_grid4 = budgets.b4;
  uint16_t table = 0;
  uint32_t dc = 0;
  for (unsigned b = 0; b < (1u << cut.size()); ++b) {
    std::map<int, bool> memo;
    if (eval_in_cone(g, cut, b, root, memo)) {
      table |= static_cast<uint16_t>(1u << b);
    }
    const auto val = [&](int id) -> bool {
      for (size_t i = 0; i < cut.size(); ++i) {
        if (cut[i] == id) return ((b >> i) & 1u) != 0;
      }
      const GateNode& nd = g.nodes()[static_cast<size_t>(id)];
      if (nd.is_const) return nd.const_value;
      return memo.at(id);
    };
    for (const int m : members) {
      const GateNode& mn = g.nodes()[static_cast<size_t>(m)];
      if (mn.kind == GateKind::kFreeOr) {
        if (val(mn.in[0]) && val(mn.in[1])) {
          dc |= 1u << b; // would violate the FREEOR disjointness invariant
          break;
        }
      } else if (mn.kind == GateKind::kLut && mn.lut.dc_mask != 0) {
        unsigned idx = 0;
        for (int j = 0; j < mn.lut.k; ++j) {
          idx |= (val(mn.in[j]) ? 1u : 0u) << j;
        }
        if ((mn.lut.dc_mask >> idx) & 1u) {
          dc |= 1u << b;
          break;
        }
      }
    }
  }
  prob.tables[0] = table;
  prob.dc_mask = dc;
  prob.out_amp_log[0] =
      req[static_cast<size_t>(root)] != 0 ? req[static_cast<size_t>(root)] : 3;
  for (size_t i = 0; i < cut.size(); ++i) {
    const int w = cut[i];
    prob.in_var[i] = clamp_var(vars[static_cast<size_t>(w)]);
    if (req[static_cast<size_t>(w)] != 0) {
      prob.in_amp_log[i] = req[static_cast<size_t>(w)];
    } else {
      prob.in_amp_log[i] = 0; // solver's choice
      prob.in_reencodable[i] = flex[static_cast<size_t>(w)] != 0;
    }
  }
  const std::optional<LutSpec> spec = solve_lut_cone(prob);
  if (spec) assert_cone_noise(*spec, prob.in_var, opts);
  return spec;
}

void fuse_cones(const GateGraph& g, GateGraph& out, std::vector<int>& map,
                OptimizeStats& stats, bool dce_follows,
                const SolveBudgets& budgets, const OptimizeOptions& opts) {
  const auto& nodes = g.nodes();
  const int n = static_cast<int>(nodes.size());
  // Gate-consumer adjacency, shared with the dataflow executor. Only gate
  // producers' lists are ever queried here (cut candidates and cone members
  // are gates), so the gate->gate restriction loses nothing.
  std::vector<std::vector<int>> cons = g.dataflow_info().consumers;
  std::vector<char> is_output(static_cast<size_t>(n), 0);
  for (const int o : g.outputs()) is_output[static_cast<size_t>(o)] = 1;
  const std::vector<int> vars = wire_variance(g);
  // When DCE follows, fusion works the LIVE cone only: gates outside the
  // outputs' cone of influence are doomed anyway, so they neither root cones
  // nor pin cone members alive (and the rebuild reaps them early -- they may
  // reference retired operands). Without a following DCE pass everything
  // must be treated as live and kept. A graph with no marked outputs treats
  // every node as live (matching DCE) but also as externally observed, so
  // nothing may be retired by duplication either.
  std::vector<char> live(static_cast<size_t>(n), 1);
  if (g.outputs().empty()) {
    std::fill(is_output.begin(), is_output.end(), 1);
  } else if (dce_follows) {
    std::fill(live.begin(), live.end(), 0);
    for (const int o : g.outputs()) live[static_cast<size_t>(o)] = 1;
    for (int i = n - 1; i >= 0; --i) {
      if (!live[static_cast<size_t>(i)]) continue;
      const GateNode& nd = nodes[static_cast<size_t>(i)];
      for (int j = 0; j < nd.fan_in(); ++j) live[static_cast<size_t>(nd.in[j])] = 1;
    }
  }
  std::vector<char> dead(static_cast<size_t>(n), 0);
  std::vector<std::optional<Cone>> fused(static_cast<size_t>(n));

  // Pinned per-wire amplitudes. Existing LUT nodes (a prior flatten pass, or
  // a caller-recorded graph) already promise encodings; seed those so this
  // pass's cones honor them.
  std::vector<int8_t> req(static_cast<size_t>(n), 0);
  std::vector<char> needs_amp4(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate() || nd.kind != GateKind::kLut) continue;
    for (int j = 0; j < nd.lut.k; ++j) {
      const int8_t a = nd.lut.in_amp_log[static_cast<size_t>(j)];
      if (a != 3) req[static_cast<size_t>(nd.in[j])] = a;
    }
    if (nd.lut.out_amp_log != 3) {
      req[static_cast<size_t>(i)] = nd.lut.out_amp_log;
    }
  }

  // May wire w legally switch to amplitude 1/16 for cone root r? Its
  // producer must be re-emittable (a single-output LUT re-scales its test
  // vector; a plain binary gate re-solves as a 2-LUT) and every live reader
  // must cope: the asking root reads it through its own solve; kept binary
  // gates convert at rebuild; an already-fused cone that does not carry w in
  // its cut recomputes the value internally and never reads the wire.
  // NOT/MUX/LUT/FREEOR readers bake 1/8 into their execution, so they veto.
  const auto flexible = [&](int w, int r) -> bool {
    const GateNode& pn = nodes[static_cast<size_t>(w)];
    if (!pn.is_gate()) return false;
    if (is_output[static_cast<size_t>(w)]) return false;
    // A wire that is itself a committed cone root already solved its spec
    // with today's req[]; its amplitude is settled (phase-2 cuts can see
    // earlier-committed producers, which never happens in phase 1).
    if (fused[static_cast<size_t>(w)]) return false;
    if (!(is_binary_gate(pn.kind) ||
          (pn.kind == GateKind::kLut && pn.lut.n_out == 1))) {
      return false;
    }
    for (const int u : cons[static_cast<size_t>(w)]) {
      if (u == r) continue;
      if (dead[static_cast<size_t>(u)] || !live[static_cast<size_t>(u)]) continue;
      if (fused[static_cast<size_t>(u)]) {
        const auto& cc = fused[static_cast<size_t>(u)]->cut;
        if (std::find(cc.begin(), cc.end(), w) != cc.end()) return false;
        continue;
      }
      if (!is_binary_gate(nodes[static_cast<size_t>(u)].kind)) return false;
    }
    return true;
  };

  // Two sweeps over the roots. The first uses the plain tie-break and
  // commits the canonical cones; the second revisits roots left unfused and
  // retries with the realizability lookahead (see run_walk below). Keeping
  // the lookahead out of the first sweep matters: it must not perturb cones
  // the plain walk already commits -- an eagerly committed "rescue" cone can
  // absorb gates a later, larger cone needed. Phase 2 is strictly additive.
  for (int phase = 0; phase < 2; ++phase)
  for (int r = n - 1; r >= 0; --r) {
    const GateNode& root = nodes[static_cast<size_t>(r)];
    if (!root.is_gate() || dead[static_cast<size_t>(r)] ||
        !live[static_cast<size_t>(r)] || fused[static_cast<size_t>(r)]) {
      continue;
    }
    // Free nodes never root (nothing to save); multi-output LUTs carry
    // extractions a single-output replacement would lose.
    if (root.kind == GateKind::kNot || root.kind == GateKind::kFreeOr ||
        root.kind == GateKind::kLutOut ||
        (root.kind == GateKind::kLut && root.lut.n_out > 1)) {
      continue;
    }

    std::vector<char> flex_cache(static_cast<size_t>(n), 0);
    const auto refresh_flex = [&](const std::vector<int>& c) {
      for (const int w : c) {
        flex_cache[static_cast<size_t>(w)] = flexible(w, r) ? 1 : 0;
      }
    };

    // One greedy absorption walk from the root: prefer candidates that
    // retire bootstraps, then candidates that shrink the cut. The walk
    // absorbs frontier gates even through UNREALIZABLE intermediate states
    // (OR(AND, AND) only becomes realizable once the whole MAJ3 cone is
    // in), snapshotting the best realizable cone seen. Score ties fall to
    // cut order unless `lookahead` is set, in which case a tied candidate
    // whose absorption stays realizable wins -- see below.
    struct Walk {
      std::vector<int> members;
      std::vector<int> cut;
      std::optional<LutSpec> spec;
    };
    const auto run_walk = [&](bool lookahead) -> Walk {
      std::vector<int> members{r};
      std::vector<int> cut;
      const auto in_members = [&](int id) {
        return std::find(members.begin(), members.end(), id) != members.end();
      };
      const auto push_leaf = [&](std::vector<int>& c, int w) {
        if (nodes[static_cast<size_t>(w)].is_const) return; // known bit, not a LUT input
        if (in_members(w)) return; // reconvergent edge back into the cone
        if (std::find(c.begin(), c.end(), w) == c.end()) c.push_back(w);
      };
      Walk snap;
      const auto try_snapshot = [&]() {
        refresh_flex(cut);
        std::optional<LutSpec> s = realize_cone(g, r, cut, members, req, vars,
                                                flex_cache, budgets, opts);
        if (s) {
          snap.members = members;
          snap.cut = cut;
          snap.spec = s;
        }
      };
      for (int j = 0; j < root.fan_in(); ++j) push_leaf(cut, root.in[j]);
      try_snapshot();

      for (;;) {
        struct Candidate {
          int id = -1;
          int score = 0;
          std::vector<int> ncut;
        };
        std::vector<Candidate> cands;
        int best_score = 0;
        for (size_t ci = 0; ci < cut.size(); ++ci) {
          const int c = cut[ci];
          const GateNode& cn = nodes[static_cast<size_t>(c)];
          // Skip already-fused roots: their gate node is about to be replaced
          // by a LUT whose internals (retired members) must not re-enter a cut.
          if (!cn.is_gate() || dead[static_cast<size_t>(c)] ||
              fused[static_cast<size_t>(c)]) {
            continue;
          }
          if (cn.kind == GateKind::kLutOut ||
              (cn.kind == GateKind::kLut && cn.lut.n_out > 1)) {
            continue; // extraction bundles don't dissolve into cones
          }
          std::vector<int> ncut = cut;
          ncut.erase(ncut.begin() + static_cast<std::ptrdiff_t>(ci));
          members.push_back(c);
          for (int j = 0; j < cn.fan_in(); ++j) push_leaf(ncut, cn.in[j]);
          members.pop_back();
          if (ncut.size() > static_cast<size_t>(kLutMaxFanIn)) continue;
          bool dies = !is_output[static_cast<size_t>(c)];
          for (const int u : cons[static_cast<size_t>(c)]) {
            if (live[static_cast<size_t>(u)] && !dead[static_cast<size_t>(u)] &&
                u != r && !in_members(u)) {
              dies = false;
              break;
            }
          }
          const int score = 1 + (dies ? 4 * bootstrap_cost(cn.kind) : 0) +
                            static_cast<int>(cut.size()) -
                            static_cast<int>(ncut.size());
          if (score <= 0) continue; // absorbing must pay for itself
          best_score = std::max(best_score, score);
          cands.push_back(Candidate{c, score, std::move(ncut)});
        }
        if (cands.empty()) break;
        Candidate* pick = nullptr;
        if (lookahead) {
          for (auto& cd : cands) {
            if (cd.score != best_score) continue;
            members.push_back(cd.id);
            refresh_flex(cd.ncut);
            const bool realizable =
                realize_cone(g, r, cd.ncut, members, req, vars, flex_cache,
                             budgets, opts)
                    .has_value();
            members.pop_back();
            if (realizable) {
              pick = &cd;
              break;
            }
          }
        }
        if (!pick) {
          for (auto& cd : cands) {
            if (cd.score == best_score) {
              pick = &cd;
              break;
            }
          }
        }
        members.push_back(pick->id);
        cut = std::move(pick->ncut);
        try_snapshot();
      }
      return snap;
    };

    // Profit: the LUT costs one bootstrap; it must retire strictly more.
    // A member retires when every consumer is dead or itself retired within
    // this cone (the root always retires -- the LUT replaces it).
    const auto retirement = [&](const std::vector<int>& members) {
      std::vector<char> retired(members.size(), 0);
      retired[0] = 1; // root
      for (bool changed = true; changed;) {
        changed = false;
        for (size_t m = 1; m < members.size(); ++m) {
          if (retired[m] || is_output[static_cast<size_t>(members[m])]) continue;
          bool all_gone = true;
          for (const int u : cons[static_cast<size_t>(members[m])]) {
            if (dead[static_cast<size_t>(u)] || !live[static_cast<size_t>(u)]) continue;
            const auto it = std::find(members.begin(), members.end(), u);
            if (it == members.end() ||
                !retired[static_cast<size_t>(it - members.begin())]) {
              all_gone = false;
              break;
            }
          }
          if (all_gone) {
            retired[m] = 1;
            changed = true;
          }
        }
      }
      return retired;
    };
    const auto retired_cost = [&](const std::vector<int>& members,
                                  const std::vector<char>& retired) {
      int64_t rb = 0;
      for (size_t m = 0; m < members.size(); ++m) {
        if (retired[m]) {
          rb += bootstrap_cost(nodes[static_cast<size_t>(members[m])].kind);
        }
      }
      return rb;
    };

    // Phase 1: the plain tie-break, finding the committed shape of every
    // known-good cone. Phase 2 (leftover roots only): the lookahead
    // tie-break -- CSE's canonical operand order can steer the plain walk
    // into a dead end (absorbing the XOR side of an AND3 chain pins the
    // remaining leaves to unrealizable encodings) that a
    // realizability-checked tie-break escapes.
    Walk walk = run_walk(/*lookahead=*/phase == 1);
    if (!walk.spec) continue;
    std::vector<char> retired = retirement(walk.members);
    if (retired_cost(walk.members, retired) < 2) continue;
    std::vector<int> members = std::move(walk.members);
    std::vector<int> cut = std::move(walk.cut);
    const std::optional<LutSpec> snap_spec = std::move(walk.spec);

    for (size_t m = 1; m < members.size(); ++m) {
      if (retired[m]) {
        dead[static_cast<size_t>(members[m])] = 1;
        ++stats.fused_away;
      }
    }
    // Lock the solver's amplitude choice for every cut wire that was still
    // free -- a later cone may not flip an encoding this spec now bakes in.
    for (size_t ci = 0; ci < cut.size(); ++ci) {
      const int w = cut[ci];
      if (req[static_cast<size_t>(w)] == 0) {
        req[static_cast<size_t>(w)] = snap_spec->in_amp_log[ci];
        if (req[static_cast<size_t>(w)] == 4) {
          needs_amp4[static_cast<size_t>(w)] = 1;
        }
      }
    }
    // The LUT now consumes the cut wires: record r as their consumer so no
    // later cone retires a leaf this LUT still reads.
    for (const int w : cut) cons[static_cast<size_t>(w)].push_back(r);
    fused[static_cast<size_t>(r)] = Cone{std::move(cut), *snap_spec};
    ++stats.cones_fused;
  }

  // Compacting rebuild with LUT nodes in place of fused roots. Non-live
  // gates are reaped here (counted as DCE's, which would remove them next);
  // they may reference retired operands, so they must not be cloned. Kept
  // producers of re-encoded wires are patched or converted here.
  map.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (dead[static_cast<size_t>(i)]) continue;
    if (nd.is_gate() && !live[static_cast<size_t>(i)]) {
      ++stats.dead_removed;
      continue;
    }
    if (nd.is_input) {
      map[static_cast<size_t>(i)] = out.add_input().id;
    } else if (nd.is_const) {
      map[static_cast<size_t>(i)] = out.add_const(nd.const_value).id;
    } else if (fused[static_cast<size_t>(i)]) {
      const Cone& cone = *fused[static_cast<size_t>(i)];
      std::vector<Wire> ins;
      ins.reserve(cone.cut.size());
      for (const int w : cone.cut) {
        assert(map[static_cast<size_t>(w)] >= 0 && "cone leaf retired");
        ins.push_back(Wire{map[static_cast<size_t>(w)]});
      }
      map[static_cast<size_t>(i)] = out.add_lut(ins, cone.spec).id;
    } else if (nd.kind == GateKind::kLut &&
               needs_amp4[static_cast<size_t>(i)]) {
      // Kept single-output LUT whose wire a cone re-encoded: re-scaling the
      // test vector's output amplitude is the whole change.
      LutSpec s = nd.lut;
      assert(s.n_out == 1 && "multi-output wires are never re-encoded");
      s.out_amp_log = req[static_cast<size_t>(i)];
      std::vector<Wire> ins;
      for (int j = 0; j < nd.fan_in(); ++j) {
        ins.push_back(Wire{map[static_cast<size_t>(nd.in[j])]});
      }
      map[static_cast<size_t>(i)] = out.add_lut(ins, s).id;
    } else if (is_binary_gate(nd.kind) &&
               (needs_amp4[static_cast<size_t>(i)] ||
                needs_amp4[static_cast<size_t>(nd.in[0])] ||
                needs_amp4[static_cast<size_t>(nd.in[1])])) {
      // Kept plain gate touching a re-encoded wire: becomes an equivalent
      // 2-LUT honoring the pinned amplitudes.
      const auto amp_of = [&](int w) -> int8_t {
        return req[static_cast<size_t>(w)] != 0 ? req[static_cast<size_t>(w)]
                                                : static_cast<int8_t>(3);
      };
      const LutSpec s = convert_binary_spec(
          nd.kind, amp_of(nd.in[0]), amp_of(nd.in[1]), amp_of(i),
          vars[static_cast<size_t>(nd.in[0])],
          vars[static_cast<size_t>(nd.in[1])], budgets, opts);
      const std::array<Wire, 2> ins{Wire{map[static_cast<size_t>(nd.in[0])]},
                                    Wire{map[static_cast<size_t>(nd.in[1])]}};
      map[static_cast<size_t>(i)] = out.add_lut(ins, s).id;
    } else {
      assert((nd.kind == GateKind::kLut || nd.kind == GateKind::kLutOut ||
              [&] {
                for (int j = 0; j < nd.fan_in(); ++j) {
                  if (needs_amp4[static_cast<size_t>(nd.in[j])]) return false;
                }
                return true;
              }()) &&
             "re-encoded wire leaked to a reader that bakes in 1/8");
      std::array<int, 4> in{-1, -1, -1, -1};
      for (int j = 0; j < nd.fan_in(); ++j) {
        in[static_cast<size_t>(j)] = map[static_cast<size_t>(nd.in[j])];
      }
      map[static_cast<size_t>(i)] = out.clone_gate(nd, in).id;
    }
  }
  for (const int o : g.outputs()) out.mark_output(Wire{map[static_cast<size_t>(o)]});
}

// ---------------------------------------------------------------------------
// Pass 5: multi-output packing. Sibling single-output LUTs over one operand
// multiset merge into a single blind rotation with several sample
// extractions: the solver must find one weight vector whose combo cells
// carry EVERY member's truth table at per-output slot shifts (tfhe/lut.h).
// Consumer packs run first (descending by max member id), so a committed
// pack's amplitude demands on its input wires are visible when the packs
// producing those wires solve their own output encodings.
// ---------------------------------------------------------------------------

void pack_multi_output(const GateGraph& g, GateGraph& out,
                       std::vector<int>& map, OptimizeStats& stats,
                       const SolveBudgets& budgets,
                       const OptimizeOptions& opts) {
  const auto& nodes = g.nodes();
  const int n = g.num_nodes();
  const auto cons = g.dataflow_info().consumers;
  std::vector<char> is_output(static_cast<size_t>(n), 0);
  for (const int o : g.outputs()) is_output[static_cast<size_t>(o)] = 1;
  const std::vector<int> vars = wire_variance(g);

  std::vector<int8_t> req(static_cast<size_t>(n), 0);
  std::vector<char> needs_amp4(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate()) continue;
    if (nd.kind == GateKind::kLut) {
      for (int j = 0; j < nd.lut.k; ++j) {
        const int8_t a = nd.lut.in_amp_log[static_cast<size_t>(j)];
        if (a != 3) req[static_cast<size_t>(nd.in[j])] = a;
      }
      if (nd.lut.out_amp_log != 3) req[static_cast<size_t>(i)] = nd.lut.out_amp_log;
    } else if (nd.kind == GateKind::kLutOut) {
      const GateNode& p = nodes[static_cast<size_t>(nd.in[0])];
      const int8_t a = p.lut.output(nd.aux).amp_log;
      if (a != 3) req[static_cast<size_t>(i)] = a;
    }
  }

  // Candidate groups: single-output LUT nodes keyed by sorted operand list.
  std::map<std::vector<int>, std::vector<int>> groups;
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (!nd.is_gate() || nd.kind != GateKind::kLut || nd.lut.n_out != 1) continue;
    std::vector<int> key(nd.in.begin(), nd.in.begin() + nd.lut.k);
    std::sort(key.begin(), key.end());
    groups[key].push_back(i);
  }
  std::vector<std::pair<const std::vector<int>*, const std::vector<int>*>> order;
  for (const auto& [key, members] : groups) {
    if (members.size() >= 2) order.emplace_back(&key, &members);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->back() > b.second->back(); // consumers first
  });

  struct Pack {
    LutSpec spec;
    std::vector<int> ins;     ///< sorted operand wires (the spec's order)
    std::vector<int> members; ///< ascending; members[0] is the primary
  };
  std::vector<std::optional<Pack>> packed(static_cast<size_t>(n));
  std::vector<int> secondary_index(static_cast<size_t>(n), -1);
  std::vector<int> secondary_primary(static_cast<size_t>(n), -1);
  std::vector<char> taken(static_cast<size_t>(n), 0);

  const auto try_subset =
      [&](const std::vector<int>& key,
          const std::vector<int>& subset) -> std::optional<Pack> {
    const int k = static_cast<int>(key.size());
    LutConeProblem prob;
    prob.k = k;
    prob.n_out = static_cast<int>(subset.size());
    prob.budget_grid3 = budgets.b3;
    prob.budget_grid4 = budgets.b4;
    // Operand permutations onto the sorted order, then tables + dc.
    std::array<int8_t, 4> member_amp{0, 0, 0, 0}; // per canonical position
    for (size_t mi = 0; mi < subset.size(); ++mi) {
      const GateNode& nd = nodes[static_cast<size_t>(subset[mi])];
      std::array<int, 4> perm{};
      std::array<char, 4> used{};
      for (int i = 0; i < k; ++i) {
        for (int p = 0; p < k; ++p) {
          if (!used[static_cast<size_t>(p)] &&
              key[static_cast<size_t>(p)] == nd.in[static_cast<size_t>(i)]) {
            perm[static_cast<size_t>(i)] = p;
            used[static_cast<size_t>(p)] = 1;
            break;
          }
        }
      }
      uint16_t table = 0;
      uint32_t dc = 0;
      for (unsigned c = 0; c < (1u << k); ++c) {
        unsigned idx = 0;
        for (int i = 0; i < k; ++i) {
          idx |= ((c >> perm[static_cast<size_t>(i)]) & 1u) << i;
        }
        if (lut_eval(nd.lut.table, idx)) table |= static_cast<uint16_t>(1u << c);
        if ((nd.lut.dc_mask >> idx) & 1u) dc |= 1u << c;
      }
      prob.tables[mi] = table;
      prob.dc_mask |= dc; // unreachable input values bind every member
      for (int i = 0; i < k; ++i) {
        const int8_t a = nd.lut.in_amp_log[static_cast<size_t>(i)];
        const size_t p = static_cast<size_t>(perm[static_cast<size_t>(i)]);
        assert((member_amp[p] == 0 || member_amp[p] == a) &&
               "pack members disagree on a shared wire's amplitude");
        member_amp[p] = a;
      }
      prob.out_amp_log[mi] = req[static_cast<size_t>(subset[mi])] != 0
                                 ? req[static_cast<size_t>(subset[mi])]
                                 : static_cast<int8_t>(3);
    }
    for (int p = 0; p < k; ++p) {
      const int w = key[static_cast<size_t>(p)];
      prob.in_var[static_cast<size_t>(p)] = clamp_var(vars[static_cast<size_t>(w)]);
      const GateNode& pn = nodes[static_cast<size_t>(w)];
      const bool producer_ok =
          pn.is_gate() && (is_binary_gate(pn.kind) ||
                           (pn.kind == GateKind::kLut && pn.lut.n_out == 1));
      bool all_inside = true;
      for (const int u : cons[static_cast<size_t>(w)]) {
        if (std::find(subset.begin(), subset.end(), u) == subset.end()) {
          all_inside = false;
          break;
        }
      }
      if (member_amp[static_cast<size_t>(p)] == 4) {
        prob.in_amp_log[static_cast<size_t>(p)] = 4;
      } else if (producer_ok && all_inside &&
                 !is_output[static_cast<size_t>(w)] &&
                 req[static_cast<size_t>(w)] == 0) {
        prob.in_amp_log[static_cast<size_t>(p)] = 0; // solver's choice
        prob.in_reencodable[static_cast<size_t>(p)] = true;
      } else {
        prob.in_amp_log[static_cast<size_t>(p)] =
            req[static_cast<size_t>(w)] != 0 ? req[static_cast<size_t>(w)]
                                             : static_cast<int8_t>(3);
      }
    }
    const std::optional<LutSpec> spec = solve_lut_cone(prob);
    if (!spec) return std::nullopt;
    assert_cone_noise(*spec, prob.in_var, opts);
    return Pack{*spec, key, subset};
  };

  const auto commit = [&](const Pack& p) {
    packed[static_cast<size_t>(p.members[0])] = p;
    for (size_t j = 1; j < p.members.size(); ++j) {
      secondary_index[static_cast<size_t>(p.members[j])] = static_cast<int>(j);
      secondary_primary[static_cast<size_t>(p.members[j])] = p.members[0];
    }
    for (const int m : p.members) taken[static_cast<size_t>(m)] = 1;
    for (size_t i = 0; i < p.ins.size(); ++i) {
      const int w = p.ins[i];
      if (req[static_cast<size_t>(w)] == 0) {
        req[static_cast<size_t>(w)] = p.spec.in_amp_log[i];
        if (req[static_cast<size_t>(w)] == 4) {
          needs_amp4[static_cast<size_t>(w)] = 1;
        }
      }
    }
    stats.luts_packed += static_cast<int>(p.members.size());
    stats.extra_outputs += static_cast<int>(p.members.size()) - 1;
  };

  for (const auto& [key_p, members_p] : order) {
    std::vector<int> members;
    for (const int m : *members_p) {
      if (!taken[static_cast<size_t>(m)]) members.push_back(m);
    }
    if (members.size() < 2) continue;
    if (members.size() > static_cast<size_t>(kLutMaxOutputs)) {
      members.resize(static_cast<size_t>(kLutMaxOutputs));
    }
    if (const auto p = try_subset(*key_p, members)) {
      commit(*p);
      continue;
    }
    if (members.size() > 2) {
      bool done = false;
      for (size_t a = 0; a + 1 < members.size() && !done; ++a) {
        for (size_t b = a + 1; b < members.size() && !done; ++b) {
          if (const auto p =
                  try_subset(*key_p, {members[a], members[b]})) {
            commit(*p);
            done = true;
          }
        }
      }
    }
  }

  // Rebuild: primaries become multi-output LUTs, the other members become
  // zero-cost extraction nodes; producers of re-encoded input wires are
  // patched (LUT re-scale) or converted (binary gate -> 2-LUT).
  map.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const GateNode& nd = nodes[static_cast<size_t>(i)];
    if (nd.is_input) {
      map[static_cast<size_t>(i)] = out.add_input().id;
      continue;
    }
    if (nd.is_const) {
      map[static_cast<size_t>(i)] = out.add_const(nd.const_value).id;
      continue;
    }
    if (secondary_index[static_cast<size_t>(i)] >= 0) {
      const int p = secondary_primary[static_cast<size_t>(i)];
      map[static_cast<size_t>(i)] =
          out.add_lut_output(Wire{map[static_cast<size_t>(p)]},
                             secondary_index[static_cast<size_t>(i)])
              .id;
      continue;
    }
    if (packed[static_cast<size_t>(i)]) {
      const Pack& p = *packed[static_cast<size_t>(i)];
      std::vector<Wire> ins;
      ins.reserve(p.ins.size());
      for (const int w : p.ins) ins.push_back(Wire{map[static_cast<size_t>(w)]});
      map[static_cast<size_t>(i)] = out.add_lut(ins, p.spec).id;
      continue;
    }
    if (nd.kind == GateKind::kLut && nd.lut.n_out == 1 &&
        needs_amp4[static_cast<size_t>(i)]) {
      LutSpec s = nd.lut;
      s.out_amp_log = req[static_cast<size_t>(i)];
      std::vector<Wire> ins;
      for (int j = 0; j < nd.fan_in(); ++j) {
        ins.push_back(Wire{map[static_cast<size_t>(nd.in[j])]});
      }
      map[static_cast<size_t>(i)] = out.add_lut(ins, s).id;
      continue;
    }
    if (is_binary_gate(nd.kind) &&
        (needs_amp4[static_cast<size_t>(i)] ||
         needs_amp4[static_cast<size_t>(nd.in[0])] ||
         needs_amp4[static_cast<size_t>(nd.in[1])])) {
      const auto amp_of = [&](int w) -> int8_t {
        return req[static_cast<size_t>(w)] != 0 ? req[static_cast<size_t>(w)]
                                                : static_cast<int8_t>(3);
      };
      const LutSpec s = convert_binary_spec(
          nd.kind, amp_of(nd.in[0]), amp_of(nd.in[1]), amp_of(i),
          vars[static_cast<size_t>(nd.in[0])],
          vars[static_cast<size_t>(nd.in[1])], budgets, opts);
      const std::array<Wire, 2> ins{Wire{map[static_cast<size_t>(nd.in[0])]},
                                    Wire{map[static_cast<size_t>(nd.in[1])]}};
      map[static_cast<size_t>(i)] = out.add_lut(ins, s).id;
      continue;
    }
    std::array<int, 4> in{-1, -1, -1, -1};
    for (int j = 0; j < nd.fan_in(); ++j) {
      in[static_cast<size_t>(j)] = map[static_cast<size_t>(nd.in[j])];
    }
    map[static_cast<size_t>(i)] = out.clone_gate(nd, in).id;
  }
  for (const int o : g.outputs()) {
    out.mark_output(Wire{map[static_cast<size_t>(o)]});
  }
}

// ---------------------------------------------------------------------------
// Pass 6: DCE.
// ---------------------------------------------------------------------------

/// Backward liveness from the marked outputs, then compacting rebuild.
/// `map[i]` is node i's wire in `out` (-1 when dead). Inputs always survive.
void eliminate_dead(const GateGraph& g, GateGraph& out, std::vector<int>& map,
                    OptimizeStats& stats) {
  std::vector<char> live(g.nodes().size(), 0);
  for (const int o : g.outputs()) live[o] = 1;
  for (const int in : g.inputs()) live[in] = 1;
  for (size_t i = g.nodes().size(); i-- > 0;) {
    if (!live[i]) continue;
    const GateNode& n = g.nodes()[i];
    for (int j = 0; j < n.fan_in(); ++j) live[n.in[j]] = 1;
  }
  map.assign(g.nodes().size(), -1);
  for (size_t i = 0; i < g.nodes().size(); ++i) {
    const GateNode& n = g.nodes()[i];
    if (!live[i]) {
      if (n.is_gate()) ++stats.dead_removed;
      continue;
    }
    if (n.is_input) {
      map[i] = out.add_input().id;
    } else if (n.is_const) {
      map[i] = out.add_const(n.const_value).id;
    } else {
      std::array<int, 4> in{-1, -1, -1, -1};
      for (int j = 0; j < n.fan_in(); ++j) in[j] = map[n.in[j]];
      map[i] = out.clone_gate(n, in).id;
    }
  }
  for (const int o : g.outputs()) out.mark_output(Wire{map[o]});
}

/// total[i] <- next[total[i]] (dead wires stay dead).
void compose(std::vector<int>& total, const std::vector<int>& next) {
  for (int& w : total) w = w >= 0 ? next[static_cast<size_t>(w)] : -1;
}

} // namespace

CompiledGraph CompiledGraph::compile(const GateGraph& g,
                                     const OptimizeOptions& opts) {
  CompiledGraph c;
  const SolveBudgets budgets = make_budgets(opts);
  GateGraph buf[2];
  std::vector<int> total;
  c.stats = fold_and_cse(g, opts, buf[0], total);
  c.stats.depth_before = g.bootstrap_depth();
  GateGraph* cur = &buf[0];
  int flip = 1;
  const auto advance = [&](const auto& pass) {
    GateGraph& nxt = buf[flip];
    nxt = GateGraph{};
    std::vector<int> m;
    pass(*cur, nxt, m);
    compose(total, m);
    cur = &nxt;
    flip ^= 1;
  };
  if (opts.rebalance_chains) {
    advance([&](const GateGraph& in, GateGraph& o, std::vector<int>& m) {
      rebalance_chains(in, o, m, c.stats);
    });
  }
  if (opts.flatten_mux_trees) {
    advance([&](const GateGraph& in, GateGraph& o, std::vector<int>& m) {
      flatten_mux_trees(in, o, m, c.stats, budgets, opts);
    });
  }
  if (opts.fuse_lut_cones) {
    advance([&](const GateGraph& in, GateGraph& o, std::vector<int>& m) {
      fuse_cones(in, o, m, c.stats, /*dce_follows=*/!in.outputs().empty(),
                 budgets, opts);
    });
  }
  if (opts.pack_multi_output) {
    advance([&](const GateGraph& in, GateGraph& o, std::vector<int>& m) {
      pack_multi_output(in, o, m, c.stats, budgets, opts);
    });
  }
  if (!cur->outputs().empty()) {
    std::vector<int> m;
    eliminate_dead(*cur, c.graph, m, c.stats);
    compose(total, m);
  } else {
    c.graph = std::move(*cur);
  }
  c.wire_map = std::move(total);
  c.stats.gates_after = c.graph.num_gates();
  c.stats.bootstraps_after = c.graph.bootstrap_count();
  c.stats.depth_after = c.graph.bootstrap_depth();
  return c;
}

} // namespace matcha::exec
