// In-order list scheduler: maps the bootstrapping DFG onto the architecture's
// resources respecting data dependencies and structural hazards (the
// OpenCGRA "scheduling and mapping the DFG onto the AD" step).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/dfg.h"
#include "sim/gate_dag.h"

namespace matcha::sim {

struct ScheduleResult {
  int64_t makespan = 0;
  std::vector<int64_t> start, end;
  std::array<int64_t, static_cast<int>(Resource::kCount)> busy{};

  double utilization(Resource r) const {
    return makespan == 0
               ? 0.0
               : static_cast<double>(busy[static_cast<int>(r)]) / makespan;
  }
};

/// Schedule the DFG. Nodes are issued in id order per resource (the DFG
/// builder emits them in pipeline order), which matches the hardware's
/// in-order FIFOs between the TGSW cluster and EP core (Fig. 6(b)).
ScheduleResult schedule(const Dfg& dfg);

/// Map `num_gates` copies of one gate's DFG onto a chip with `pipelines`
/// TGSW-cluster/EP-core pairs. Gates are assigned round-robin to pipelines
/// (a single gate's blind rotation is sequential in the accumulator, so one
/// gate never spreads across pipelines); the polynomial unit and the HBM
/// channel are shared chip-wide, so key streaming contends across gates.
/// Nodes are issued round-robin across gates, modeling the memory
/// controller's fair interleaving of concurrent key streams
/// (exec/batch_executor.h is the software analogue).
///
/// This is not schedule_gate_dag over an edgeless DAG: that dispatches a
/// gate at a time, leaving HBM gaps that node-by-node interleaving fills,
/// and is up to 48% slower for batches >= 2 at security110 (DESIGN.md
/// "Simulator view").
GateDagScheduleResult schedule_batch(const Dfg& gate_dfg, int num_gates,
                                     int pipelines);

} // namespace matcha::sim
