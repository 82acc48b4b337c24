#include "sim/scheduler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "sim/cycle_sim.h"

namespace matcha::sim {

ScheduleResult schedule(const Dfg& dfg) {
  ScheduleResult r;
  const size_t n = dfg.nodes.size();
  r.start.assign(n, 0);
  r.end.assign(n, 0);
  std::array<UnitTimeline, static_cast<int>(Resource::kCount)> units{};
  for (const auto& node : dfg.nodes) {
    int64_t ready = 0;
    for (int d : node.deps) {
      assert(d < node.id && "DFG must be emitted in topological order");
      if (r.end[d] > ready) ready = r.end[d];
    }
    const int64_t done =
        units[static_cast<int>(node.resource)].claim(ready, node.cycles);
    r.start[node.id] = done - node.cycles;
    r.end[node.id] = done;
    if (done > r.makespan) r.makespan = done;
  }
  for (int i = 0; i < static_cast<int>(Resource::kCount); ++i) {
    r.busy[i] = units[i].busy;
  }
  return r;
}

GateDagScheduleResult schedule_batch(const Dfg& gate_dfg, int num_gates,
                                     int pipelines) {
  if (pipelines <= 0) {
    throw std::invalid_argument("schedule_batch: pipelines must be positive");
  }
  GateDagScheduleResult r;
  r.num_gates = num_gates;
  r.pipelines = pipelines;
  r.gate_end.assign(num_gates, 0);
  if (num_gates == 0 || gate_dfg.nodes.empty()) return r;

  // Per-pipeline private timelines (TGSW cluster + EP core) and chip-shared
  // ones (polynomial unit, HBM channel).
  std::vector<UnitTimeline> tgsw(pipelines), ep(pipelines);
  UnitTimeline poly, hbm;

  const size_t num_nodes = gate_dfg.nodes.size();
  // end[g * num_nodes + n] = completion cycle of node n of gate g.
  std::vector<int64_t> end(static_cast<size_t>(num_gates) * num_nodes, 0);

  // Round-robin issue across gates: every gate's node i is placed before any
  // gate's node i+1, modeling fair interleaving of the concurrent key
  // streams on the shared memory controller.
  for (size_t i = 0; i < num_nodes; ++i) {
    const DfgNode& node = gate_dfg.nodes[i];
    for (int g = 0; g < num_gates; ++g) {
      const size_t base = static_cast<size_t>(g) * num_nodes;
      int64_t ready = 0;
      for (int d : node.deps) {
        assert(d < node.id && "DFG must be emitted in topological order");
        if (end[base + d] > ready) ready = end[base + d];
      }
      UnitTimeline* unit = nullptr;
      switch (node.resource) {
        case Resource::kTgswCluster: unit = &tgsw[g % pipelines]; break;
        case Resource::kEpCore: unit = &ep[g % pipelines]; break;
        case Resource::kPolyUnit: unit = &poly; break;
        case Resource::kHbm: unit = &hbm; break;
        case Resource::kCount: break;
      }
      assert(unit != nullptr && "DFG node carries an invalid resource");
      const int64_t done = unit->claim(ready, node.cycles);
      end[base + i] = done;
      if (done > r.gate_end[g]) r.gate_end[g] = done;
      if (done > r.makespan) r.makespan = done;
    }
  }

  if (r.makespan > 0) {
    int64_t pipeline_busy = 0;
    for (int p = 0; p < pipelines; ++p) pipeline_busy += tgsw[p].busy + ep[p].busy;
    r.pipeline_occupancy = static_cast<double>(pipeline_busy) /
                           (2.0 * pipelines * r.makespan);
    r.hbm_utilization = static_cast<double>(hbm.busy) / r.makespan;
    r.poly_utilization = static_cast<double>(poly.busy) / r.makespan;
  }
  return r;
}

} // namespace matcha::sim
