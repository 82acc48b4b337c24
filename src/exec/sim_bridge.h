// Feed a recorded GateGraph to the chip simulator: the graph's gate nodes
// and their true wire dependencies become a sim::GateDag, which
// sim::schedule_gate_dag dispatches across the chip's pipelines by data
// readiness -- or, sharded by sim::partition_gate_dag, across several chips
// with inter-chip transfer edges (sim::schedule_gate_dag_multichip). This is
// the honest replacement for modeling a circuit as a batch of independent
// bootstrappings -- the simulator sees exactly the dependency structure the
// software BatchExecutor executes.
#pragma once

#include <algorithm>

#include "exec/gate_graph.h"
#include "sim/gate_dag.h"

namespace matcha::exec {

/// Project the graph's gate nodes (inputs and constants drop out -- they are
/// data, not work) into a circuit DAG for sim::schedule_gate_dag /
/// sim::simulate_circuit. A fused LUT node costs bootstrap_cost(kLut) == 1
/// blind rotation on the chip, exactly like a plain binary gate -- the chip
/// datapath runs the same per-bootstrap DFG whether the test vector encodes
/// a sign or a multi-slot LUT, which is why cone fusion is a pure win there
/// too. A multi-output LUT's secondary extractions (kLutOut) merge INTO the
/// parent rotation's node: still one rotation, and consumers of any output
/// depend on the parent (extraction is a wire-read on the chip, so it adds
/// no schedule latency). kFreeOr and kNot project as zero-bootstrap wire
/// nodes, so the chip's dependence structure sees through them at no
/// latency; each is *pinned* to the rotation that feeds it (its first
/// operand), so the round-2 partitioner keeps these wires on their anchor's
/// chip and never pays a transfer to move a free linear op somewhere else
/// (sim::GateDagNode::pin).
inline sim::GateDag to_gate_dag(const GateGraph& g) {
  sim::GateDag dag;
  dag.gates.reserve(static_cast<size_t>(g.num_gates()));
  std::vector<int> gate_index(g.nodes().size(), -1);
  for (size_t i = 0; i < g.nodes().size(); ++i) {
    const GateNode& n = g.nodes()[i];
    if (!n.is_gate()) continue;
    if (n.kind == GateKind::kLutOut) {
      // This wire IS the parent rotation, read at another coefficient.
      gate_index[i] = gate_index[n.in[0]];
      continue;
    }
    sim::GateDagNode d;
    d.bootstraps = bootstrap_cost(n.kind);
    if (d.bootstraps == 0 && n.fan_in() > 0) {
      d.pin = gate_index[n.in[0]]; // anchor the free wire to its producer
    }
    for (int j = 0; j < n.fan_in(); ++j) {
      const int dep = gate_index[n.in[j]];
      if (dep >= 0 &&
          std::find(d.deps.begin(), d.deps.end(), dep) == d.deps.end()) {
        d.deps.push_back(dep);
      }
    }
    gate_index[i] = static_cast<int>(dag.gates.size());
    dag.gates.push_back(std::move(d));
  }
  return dag;
}

} // namespace matcha::exec
