// Recorded gate-DAG for batched execution (the software analogue of the
// paper's OpenCGRA flow: compile a TFHE workload into a dependence graph
// first, optimize it, then schedule it onto parallel resources). A GateGraph
// is SSA: every node produces exactly one ciphertext, identified by its Wire.
// Three node species:
//   - inputs: execution-time ciphertexts bound by BatchExecutor::run;
//   - constants: known plaintext bits, materialized as trivial (noiseless)
//     LWE samples at execution time and folded through gates at compile time;
//   - gates: explicit fan-in wires into earlier nodes (true dependency edges,
//     not recording order).
//
// compile() runs the optimization pipeline -- constant folding, common-
// subexpression elimination, dead-gate elimination against the marked
// outputs. Execution is dataflow-driven: dataflow_info() exposes consumer
// lists and readiness refcounts (the contract of exec/batch_executor.h and,
// through exec/sim_bridge.h, the chip simulator); wavefronts() remains as a
// profiling and partitioning view of the same dependence structure.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tfhe/gate_kind.h"
#include "tfhe/lut.h"

namespace matcha {
struct TfheParams; // tfhe/params.h; optional noise-budget source for compile
} // namespace matcha

namespace matcha::exec {

/// Handle to one ciphertext value in a GateGraph (the node that produces it).
struct Wire {
  int id = -1;

  bool valid() const { return id >= 0; }
  friend bool operator==(Wire a, Wire b) { return a.id == b.id; }
};

struct GateNode {
  GateKind kind{};
  bool is_input = false;
  bool is_const = false;
  bool const_value = false; ///< plaintext bit when is_const
  /// Fan-in wires: binary gates use in[0], in[1]; NOT uses in[0]; MUX uses
  /// {sel, c1, c0}; LUT uses in[0..lut.k); LUTOUT uses in[0] (its parent
  /// LUT's wire); FREEOR uses in[0], in[1].
  std::array<int, 4> in{-1, -1, -1, -1};
  /// kLut payload: truth table(s) + combo weights (tfhe/lut.h). The i-th LUT
  /// input bit is the wire in[i].
  LutSpec lut{};
  /// kLutOut payload: which output of the parent LUT this wire carries
  /// (1..parent.lut.n_out - 1; output 0 is the parent's own wire).
  int8_t aux = 0;

  bool is_gate() const { return !is_input && !is_const; }
  int fan_in() const {
    if (!is_gate()) return 0;
    if (kind == GateKind::kNot || kind == GateKind::kLutOut) return 1;
    if (kind == GateKind::kMux) return 3;
    if (kind == GateKind::kLut) return lut.k;
    return 2;
  }
};

/// Which passes compile() runs besides common-subexpression elimination and
/// dead-gate elimination (from marked outputs), which always run. Constant
/// folding and LUT cone fusion rewrite ciphertexts (a folded gate skips its
/// bootstrap; a fused cone replaces several bootstraps with one functional
/// bootstrap -- output bits differ from an eager evaluation while the
/// plaintexts agree); CSE and DCE are bit-preserving -- deduplicated gates
/// recompute the identical deterministic bootstrap, and dead gates never feed
/// an output.
struct OptimizeOptions {
  bool fold_constants = true;
  /// Collapse gate cones (fan-in <= kLutMaxFanIn, realizable truth table --
  /// see tfhe/lut.h) into one-bootstrap LUT nodes, choosing per-edge
  /// encodings (a producer may emit amplitude 1/16 when that makes its
  /// consumer cone solvable). Runs after fold/CSE (folding exposes larger
  /// cones) and before DCE (fusion strands absorbed gates for DCE to reap).
  bool fuse_lut_cones = true;
  /// Rebalance single-consumer associative chains (XOR/AND/OR) into balanced
  /// trees before fusion -- shrinks dependence depth and exposes 3-ary cones.
  bool rebalance_chains = true;
  /// Flatten MUX trees sharing a select vector into minterm LUT sums
  /// combined by bootstrap-free disjoint ORs (kFreeOr).
  bool flatten_mux_trees = true;
  /// Merge sibling LUTs over the same input set into one multi-output LUT:
  /// one blind rotation, several sample extractions (e.g. a full adder's
  /// sum + carry become a single bootstrap).
  bool pack_multi_output = true;
  /// When set, LUT noise budgets come from noise::lut_weight_budget over
  /// these parameters instead of the built-in defaults (which match both
  /// shipped parameter sets), and solved cones are asserted against the
  /// decode-margin failure bound.
  const TfheParams* noise_params = nullptr;
  int unroll_m = 2; ///< bootstrap unroll factor assumed by the noise budget

  /// The bit-preserving subset, CSE and DCE only: results identical to the
  /// unoptimized graph.
  static OptimizeOptions bit_preserving() {
    OptimizeOptions o;
    o.fold_constants = o.fuse_lut_cones = o.rebalance_chains =
        o.flatten_mux_trees = o.pack_multi_output = false;
    return o;
  }
};

/// Dataflow adjacency of a graph: for every node, the gate nodes consuming
/// its wire, plus every gate's count of gate-node operands. A gate that uses
/// one wire twice appears twice in that wire's consumer list and counts both
/// uses in its indegree, so one decrement per consumer edge balances exactly.
/// This is the readiness-refcount contract of the dataflow executor
/// (exec/batch_executor.h): a gate may execute once `gate_indegree` operand
/// completions have been observed -- gates with indegree 0 depend only on
/// inputs and constants, which are materialized before dispatch.
struct DataflowInfo {
  std::vector<std::vector<int>> consumers; ///< per node: consuming gate ids
  std::vector<int> gate_indegree;          ///< per node: gate-operand count
};

struct OptimizeStats {
  int gates_before = 0;
  int gates_after = 0;
  int folded = 0;       ///< gates replaced by constants or existing wires
  int cse_hits = 0;     ///< gates deduplicated against an identical twin
  int dead_removed = 0; ///< gates unreachable from any marked output
  int cones_fused = 0;  ///< LUT nodes emitted by cone fusion
  int fused_away = 0;   ///< gates absorbed into LUT cones and eliminated
  int chains_rebalanced = 0;   ///< associative chains rebuilt as trees
  int mux_trees_flattened = 0; ///< MUX roots lowered to minterm free-OR form
  int luts_packed = 0;         ///< LUT nodes merged into multi-output LUTs
  int extra_outputs = 0;       ///< secondary extractions added by packing
  int64_t bootstraps_before = 0;
  int64_t bootstraps_after = 0;
  /// Critical-path depth in blind-rotation latencies (depth_cost), before
  /// any rewriting and after the full pipeline.
  int depth_before = 0;
  int depth_after = 0;
};

class GateGraph {
 public:
  /// Register an execution-time input; the k-th call corresponds to the k-th
  /// ciphertext handed to BatchExecutor::run.
  Wire add_input();
  /// Register a known plaintext bit (deduplicated; at most one node per
  /// value). Executes as a trivial noiseless LWE sample.
  Wire add_const(bool value);
  /// Append a gate consuming existing wires (asserts they are in range).
  Wire add_gate(GateKind kind, Wire a, Wire b = {}, Wire c = {});
  /// Append a fused LUT node: one functional bootstrap over ins.size() ==
  /// spec.k input wires (see tfhe/lut.h for the spec's legality contract).
  /// A multi-output spec's primary output is this wire; secondary outputs
  /// must be materialized with add_lut_output.
  Wire add_lut(std::span<const Wire> ins, const LutSpec& spec);
  /// Append the `out_index`-th output (1..n_out-1) of a multi-output LUT:
  /// a zero-cost node whose value is the parent's rotation extracted at the
  /// output's slot shift.
  Wire add_lut_output(Wire parent, int out_index);
  /// Append a structural copy of `proto` (kind + LUT payload) over new
  /// fan-in wires -- the optimizer's rebuild primitive.
  Wire clone_gate(const GateNode& proto, std::span<const int> ins);
  /// Mark a wire the circuit's consumer will read. Dead-gate elimination
  /// keeps exactly the cone of influence of the marked outputs; a graph with
  /// no marked outputs treats every node as live.
  void mark_output(Wire w);

  const std::vector<GateNode>& nodes() const { return nodes_; }
  const std::vector<int>& inputs() const { return inputs_; }
  const std::vector<int>& outputs() const { return outputs_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_gates() const { return num_gates_; }
  /// Total gate bootstrappings one execution performs (2 per MUX, 0 per NOT,
  /// 1 per LUT no matter how many outputs it extracts).
  int64_t bootstrap_count() const;
  /// Total sample extractions (1 per bootstrap-bearing node, plus one per
  /// secondary LUT output).
  int64_t extraction_count() const;
  /// Critical-path depth in blind-rotation latencies: the longest
  /// dependence path weighted by depth_cost (MUX's two rotations run in
  /// parallel, so it counts 1; NOT/LUTOUT/FREEOR count 0).
  int bootstrap_depth() const;

  /// Partition nodes into dependence levels: level 0 holds inputs and
  /// constants, and every gate sits one past its deepest operand.
  std::vector<std::vector<int>> levelize() const;
  /// The gate levels only (levelize() minus level 0): each wavefront is a set
  /// of mutually independent gates. Profiling/partitioning view; the executor
  /// dispatches by per-gate readiness (dataflow_info), not by level.
  std::vector<std::vector<int>> wavefronts() const;
  /// Consumer lists and readiness refcounts (see DataflowInfo).
  DataflowInfo dataflow_info() const;

 private:
  std::vector<GateNode> nodes_;
  std::vector<int> inputs_;
  std::vector<int> outputs_;
  std::array<int, 2> const_wire_{-1, -1}; ///< dedup cache for add_const
  int num_gates_ = 0;
};

/// An optimized copy of a recorded graph plus the wire renaming that maps the
/// recording's handles into it (wires whose producers were eliminated map to
/// the wire that now carries their value, or to invalid for dead gates).
struct CompiledGraph {
  GateGraph graph;
  std::vector<int> wire_map; ///< old wire id -> new wire id (-1 if dead)
  OptimizeStats stats;

  Wire remap(Wire w) const {
    if (!w.valid()) return Wire{};
    assert(static_cast<size_t>(w.id) < wire_map.size() &&
           "wire from a different graph than the one compiled");
    return Wire{wire_map[static_cast<size_t>(w.id)]};
  }

  /// Run the optimization pipeline over `g`: constant folding, then CSE (on
  /// operand-canonicalized keys -- every binary gate's linear combination is
  /// symmetric, so commuted twins dedupe), then dead-gate elimination from
  /// the marked outputs. Inputs are always preserved, in order, so the
  /// executor's input-binding contract is unchanged.
  static CompiledGraph compile(const GateGraph& g,
                               const OptimizeOptions& opts = {});
};

} // namespace matcha::exec
