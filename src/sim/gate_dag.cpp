#include "sim/gate_dag.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "sim/cycle_sim.h"

namespace matcha::sim {

namespace {

/// The topological contract: every dep (and pin) of gate i indexes an
/// earlier gate. Checked once per public call, so malformed input throws
/// instead of indexing past the per-gate arrays.
void require_topological(const GateDag& dag, const char* who) {
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    const GateDagNode& g = dag.gates[i];
    for (const int d : g.deps) {
      if (d < 0 || d >= static_cast<int>(i)) {
        throw std::invalid_argument(std::string(who) +
                                    ": deps must index earlier gates");
      }
    }
    if (g.pin >= static_cast<int>(i)) {
      throw std::invalid_argument(std::string(who) +
                                  ": pin must index an earlier gate");
    }
  }
}

void require_chip(const ChipResources& chip, const char* who) {
  if (chip.dfg == nullptr || chip.pipelines <= 0) {
    throw std::invalid_argument(std::string(who) +
                                ": the chip needs a DFG and positive pipelines");
  }
}

} // namespace

int64_t GateDag::total_bootstraps() const {
  int64_t total = 0;
  for (const auto& g : gates) total += g.bootstraps;
  return total;
}

int64_t GateDag::critical_path_bootstraps() const {
  require_topological(*this, "GateDag::critical_path_bootstraps");
  std::vector<int64_t> depth(gates.size(), 0);
  int64_t longest = 0;
  for (size_t i = 0; i < gates.size(); ++i) {
    int64_t deepest = 0;
    for (const int d : gates[i].deps) {
      if (depth[d] > deepest) deepest = depth[d];
    }
    depth[i] = deepest + gates[i].bootstraps;
    if (depth[i] > longest) longest = depth[i];
  }
  return longest;
}

GateDag replicate_gate_dag(const GateDag& circuit, int copies) {
  if (copies < 0) {
    throw std::invalid_argument("replicate_gate_dag: copies must be >= 0");
  }
  require_topological(circuit, "replicate_gate_dag");
  const int n = static_cast<int>(circuit.gates.size());
  GateDag out;
  out.gates.reserve(static_cast<size_t>(n) * copies);
  for (int k = 0; k < copies; ++k) {
    const int base = k * n;
    for (const GateDagNode& g : circuit.gates) {
      GateDagNode d = g;
      for (int& dep : d.deps) dep += base;
      if (d.pin >= 0) d.pin += base;
      out.gates.push_back(std::move(d));
    }
  }
  return out;
}

namespace {

int64_t count_cut(const GateDag& dag, const std::vector<int>& chip_of) {
  int64_t cut = 0;
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    for (const int d : dag.gates[i].deps) {
      cut += chip_of[static_cast<size_t>(d)] != chip_of[i];
    }
  }
  return cut;
}

} // namespace

GateDagPartition summarize_partition(const GateDag& dag, int num_chips,
                                     std::vector<int> chip_of) {
  if (num_chips <= 0 || chip_of.size() != dag.gates.size()) {
    throw std::invalid_argument(
        "summarize_partition: partition does not match the DAG");
  }
  GateDagPartition part;
  part.num_chips = num_chips;
  part.chip_bootstraps.assign(static_cast<size_t>(num_chips), 0);
  std::vector<char> seen(static_cast<size_t>(num_chips), 0);
  for (size_t i = 0; i < chip_of.size(); ++i) {
    const int c = chip_of[i];
    if (c < 0 || c >= num_chips) {
      throw std::invalid_argument("summarize_partition: chip id out of range");
    }
    part.chip_bootstraps[static_cast<size_t>(c)] += dag.gates[i].bootstraps;
    seen[static_cast<size_t>(c)] = 1;
  }
  part.used_chips = static_cast<int>(
      std::count(seen.begin(), seen.end(), static_cast<char>(1)));
  part.cut_wires = count_cut(dag, chip_of);
  part.chip_of = std::move(chip_of);
  return part;
}

namespace {

std::vector<std::vector<int>> user_lists(const GateDag& dag) {
  std::vector<std::vector<int>> users(dag.gates.size());
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    for (const int d : dag.gates[i].deps) {
      users[static_cast<size_t>(d)].push_back(static_cast<int>(i));
    }
  }
  return users;
}

/// Snap pinned wire nodes (NOT / kFreeOr) onto their anchor's chip when edge
/// monotonicity allows: lo = max operand chip, hi = min consumer chip, and
/// the pin target is clamped into [lo, hi]. Processed in topological order so
/// follower-of-follower chains resolve consistently; every reassignment keeps
/// all edges monotone (operands <= lo <= new chip <= hi <= consumers).
void snap_pinned_nodes(const GateDag& dag,
                       const std::vector<std::vector<int>>& users,
                       int effective_chips, std::vector<int>& chip_of) {
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    const GateDagNode& g = dag.gates[i];
    if (g.pin < 0) continue;
    int lo = 0, hi = effective_chips - 1;
    for (const int d : g.deps) lo = std::max(lo, chip_of[static_cast<size_t>(d)]);
    for (const int u : users[i]) hi = std::min(hi, chip_of[static_cast<size_t>(u)]);
    if (lo > hi) continue; // already-inconsistent input; leave untouched
    chip_of[i] = std::clamp(chip_of[static_cast<size_t>(g.pin)], lo, hi);
  }
}

/// The partition search behind both partition_gate_dag overloads: the prefix
/// seed, then with a chip the true-schedule descent and the wire-node snap,
/// without one greedy-KL under a balanced load cap.
GateDagPartition search_partition(const GateDag& dag, int num_chips,
                                  const ChipResources* chip,
                                  int64_t transfer_cycles) {
  if (num_chips <= 0) {
    throw std::invalid_argument("partition_gate_dag: num_chips must be positive");
  }
  require_topological(dag, "partition_gate_dag");
  const int n = static_cast<int>(dag.gates.size());

  int64_t total_w = 0;
  int64_t max_w = 0;
  int weighted_nodes = 0;
  for (const auto& g : dag.gates) {
    total_w += g.bootstraps;
    max_w = std::max<int64_t>(max_w, g.bootstraps);
    weighted_nodes += g.bootstraps > 0;
  }
  // Degenerate shapes: never spread fewer bootstrap-bearing gates than chips
  // across all chips -- the surplus chips stay valid but empty, and every
  // refinement below confines itself to the first `effective` chips.
  const int effective =
      std::min(num_chips, std::max(1, weighted_nodes));
  // One effective chip's equal share of the bootstraps, rounded.
  const int64_t fair_load =
      static_cast<int64_t>(total_w * (1.0 / effective) + 0.5);

  const std::vector<std::vector<int>> users = user_lists(dag);

  // Seed: balanced contiguous blocks of the topological order. Chip ids are
  // nondecreasing in the gate index, so every dependence edge is
  // chip-monotone.
  std::vector<int> chip_of(static_cast<size_t>(n), 0);
  if (effective > 1 && total_w > 0) {
    int64_t prefix = 0;
    int c = 0;
    int64_t threshold = fair_load;
    for (int i = 0; i < n; ++i) {
      while (c < effective - 1 && prefix >= threshold) {
        ++c;
        threshold += fair_load;
      }
      chip_of[static_cast<size_t>(i)] = c;
      prefix += dag.gates[static_cast<size_t>(i)].bootstraps;
    }
  }

  // ---- With a cycle model: makespan descent (round 2) ----
  // Every candidate is scored by the full multi-chip schedule itself -- an
  // analytic surrogate ranked partitions inversely (it serializes pipeline
  // latencies the real chip overlaps; DESIGN.md "The surrogate trap"). Two
  // move sets, both monotone by construction: (a) coordinate descent on the
  // topological prefix boundaries -- bulk re-splits that single-gate moves
  // cannot reach across makespan plateaus -- then (b) a single-gate polish
  // within each gate's [max dep chip, min user chip] window. No load cap
  // applies: the schedule itself is the objective and the guard against
  // overloading a chip, and a cap would only forbid profitable imbalance (a
  // chip finishing the tail alone while the rest sit idle is *faster* than
  // forced balance).
  if (chip != nullptr && effective > 1 && n > 1) {
    // Each candidate costs a full schedule (O(bootstraps * DFG nodes)), so
    // the search budget shrinks with DAG size; small latency-critical
    // circuits -- where refinement matters most -- get the full sweep.
    const int kEvalBudget = std::clamp(150000 / std::max(1, n), 400, 2500);
    int evals = 0;
    GateDagPartition probe;
    probe.num_chips = num_chips;
    // The descent revisits candidates (the local refine re-tries the strided
    // scan's best, every sweep re-tries the last one's positions), so
    // makespans are memoised for this call, keyed one byte per gate. A hit
    // still counts as an evaluation: the search path and budget are the same
    // as without the memo.
    const bool memoise = effective <= 256;
    std::unordered_map<std::string, int64_t> memo;
    std::string key(static_cast<size_t>(n), '\0');
    const auto true_makespan = [&](const std::vector<int>& candidate) {
      ++evals;
      if (memoise) {
        std::transform(candidate.begin(), candidate.end(), key.begin(),
                       [](int c) { return static_cast<char>(c); });
        const auto hit = memo.find(key);
        if (hit != memo.end()) return hit->second;
      }
      probe.chip_of = candidate;
      const int64_t t =
          schedule_gate_dag_multichip(dag, probe, *chip, transfer_cycles)
              .makespan;
      if (memoise) memo.emplace(key, t);
      return t;
    };

    // Seed boundaries from the (balanced, contiguous) prefix seed:
    // bounds[b] = first gate index assigned past chip b (the seed's chip_of
    // is nondecreasing in the gate index).
    std::vector<int> bounds(static_cast<size_t>(effective) - 1, n);
    {
      int b = 0;
      for (int i = 0; i < n && b < effective - 1; ++i) {
        while (b < effective - 1 && chip_of[static_cast<size_t>(i)] > b) {
          bounds[static_cast<size_t>(b)] = i;
          ++b;
        }
      }
    }
    const auto chips_from_bounds = [&](const std::vector<int>& b) {
      std::vector<int> co(static_cast<size_t>(n), 0);
      int c = 0;
      for (int i = 0; i < n; ++i) {
        while (c < effective - 1 && i >= b[static_cast<size_t>(c)]) ++c;
        co[static_cast<size_t>(i)] = c;
      }
      return co;
    };

    int64_t best = true_makespan(chips_from_bounds(bounds));
    // Coordinate descent: sweep every feasible position of one boundary at a
    // time (strided first on large DAGs to stay inside the eval budget).
    const int span = (n + 1) * (effective - 1);
    const int stride = std::max(1, 2 * span / kEvalBudget);
    bool moved = true;
    while (moved && evals < kEvalBudget) {
      moved = false;
      for (int bi = 0; bi < effective - 1 && evals < kEvalBudget; ++bi) {
        const int lo = bi == 0 ? 0 : bounds[static_cast<size_t>(bi) - 1];
        const int hi = bi == effective - 2 ? n : bounds[static_cast<size_t>(bi) + 1];
        int best_pos = bounds[static_cast<size_t>(bi)];
        const auto try_pos = [&](int pos) {
          if (pos == bounds[static_cast<size_t>(bi)]) return;
          std::vector<int> b2 = bounds;
          b2[static_cast<size_t>(bi)] = pos;
          const int64_t t = true_makespan(chips_from_bounds(b2));
          if (t < best) {
            best = t;
            best_pos = pos;
            moved = true;
          }
        };
        for (int pos = lo; pos <= hi && evals < kEvalBudget; pos += stride) {
          try_pos(pos);
        }
        if (stride > 1) {
          const int center = best_pos;
          for (int pos = std::max(lo, center - stride + 1);
               pos <= std::min(hi, center + stride - 1) && evals < kEvalBudget;
               ++pos) {
            try_pos(pos);
          }
        }
        bounds[static_cast<size_t>(bi)] = best_pos;
      }
    }
    chip_of = chips_from_bounds(bounds);

    // Single-gate polish against the true schedule.
    for (int pass = 0; pass < 3 && evals < kEvalBudget; ++pass) {
      bool polished = false;
      for (int v = 0; v < n && evals < kEvalBudget; ++v) {
        const GateDagNode& g = dag.gates[static_cast<size_t>(v)];
        if (g.pin >= 0 && g.bootstraps == 0) continue; // snapped below
        int lo = 0, hi = effective - 1;
        for (const int d : g.deps) lo = std::max(lo, chip_of[static_cast<size_t>(d)]);
        for (const int u : users[static_cast<size_t>(v)]) {
          hi = std::min(hi, chip_of[static_cast<size_t>(u)]);
        }
        for (int c2 = lo; c2 <= hi && evals < kEvalBudget; ++c2) {
          if (c2 == chip_of[static_cast<size_t>(v)]) continue;
          const int keep = chip_of[static_cast<size_t>(v)];
          chip_of[static_cast<size_t>(v)] = c2;
          const int64_t t = true_makespan(chip_of);
          if (t < best) {
            best = t;
            polished = true;
          } else {
            chip_of[static_cast<size_t>(v)] = keep;
          }
        }
      }
      if (!polished) break;
    }
  }

  // Wire-node anchoring: NOT/kFreeOr nodes ride with the rotation that
  // feeds them, so their outputs never pay a transfer away from their anchor
  // and multi-output bundles stay priced once.
  if (chip != nullptr) {
    snap_pinned_nodes(dag, users, effective, chip_of);
  }

  // No cycle model: PR-4 greedy-KL refinement of the cut. Move one gate at
  // a time to an adjacent chip when that strictly reduces the number of cut
  // edges, never violating edge monotonicity (the move stays within [max dep
  // chip, min user chip]) nor the balanced load cap of one fair share plus
  // one max-gate weight. Moves are applied immediately; passes repeat until
  // a fixed point.
  if (chip == nullptr && effective > 1 && n > 1) {
    const int64_t cap = fair_load + max_w;
    std::vector<int64_t> load(static_cast<size_t>(effective), 0);
    for (int i = 0; i < n; ++i) {
      load[static_cast<size_t>(chip_of[static_cast<size_t>(i)])] +=
          dag.gates[static_cast<size_t>(i)].bootstraps;
    }
    const auto cross = [&](int v, int on) {
      int64_t c = 0;
      for (const int d : dag.gates[static_cast<size_t>(v)].deps) {
        c += chip_of[static_cast<size_t>(d)] != on;
      }
      for (const int u : users[static_cast<size_t>(v)]) {
        if (chip_of[static_cast<size_t>(u)] == on) continue;
        for (const int d : dag.gates[static_cast<size_t>(u)].deps) c += d == v;
      }
      return c;
    };
    for (int pass = 0; pass < 12; ++pass) {
      bool moved = false;
      for (int v = 0; v < n; ++v) {
        const int c = chip_of[static_cast<size_t>(v)];
        int lo = 0, hi = effective - 1;
        for (const int d : dag.gates[static_cast<size_t>(v)].deps) {
          lo = std::max(lo, chip_of[static_cast<size_t>(d)]);
        }
        for (const int u : users[static_cast<size_t>(v)]) {
          hi = std::min(hi, chip_of[static_cast<size_t>(u)]);
        }
        const int64_t w = dag.gates[static_cast<size_t>(v)].bootstraps;
        const int64_t here = cross(v, c);
        int best_chip = c;
        int64_t best_gain = 0;
        for (const int c2 : {c - 1, c + 1}) {
          if (c2 < lo || c2 > hi) continue;
          if (load[static_cast<size_t>(c2)] + w > cap) continue;
          const int64_t gain = here - cross(v, c2);
          if (gain > best_gain) {
            best_gain = gain;
            best_chip = c2;
          }
        }
        if (best_chip != c) {
          chip_of[static_cast<size_t>(v)] = best_chip;
          load[static_cast<size_t>(c)] -= w;
          load[static_cast<size_t>(best_chip)] += w;
          moved = true;
        }
      }
      if (!moved) break;
    }
  }

  return summarize_partition(dag, num_chips, std::move(chip_of));
}

} // namespace

GateDagPartition partition_gate_dag(const GateDag& dag, int num_chips,
                                    const ChipResources& chip,
                                    int64_t transfer_cycles) {
  require_chip(chip, "partition_gate_dag");
  GateDagPartition part =
      search_partition(dag, num_chips, &chip, transfer_cycles);
  // Never slower than the greedy-KL baseline: schedule it too -- after the
  // search and outside its budget, so the descent path is unchanged -- and
  // keep it unless the refinement is strictly faster.
  GateDagPartition base = partition_gate_dag(dag, num_chips);
  const auto makespan = [&](const GateDagPartition& candidate) {
    return schedule_gate_dag_multichip(dag, candidate, chip, transfer_cycles)
        .makespan;
  };
  const int64_t t_base = makespan(base);
  GateDagPartition& out =
      part.chip_of != base.chip_of && makespan(part) < t_base ? part : base;
  out.baseline_makespan = t_base;
  return std::move(out);
}

GateDagPartition partition_gate_dag(const GateDag& dag, int num_chips) {
  return search_partition(dag, num_chips, nullptr, 0);
}

MultiChipScheduleResult schedule_gate_dag_multichip(
    const GateDag& dag, const GateDagPartition& part,
    const ChipResources& chip, int64_t transfer_cycles) {
  if (part.num_chips <= 0 || part.chip_of.size() != dag.gates.size() ||
      std::any_of(part.chip_of.begin(), part.chip_of.end(),
                  [&](int c) { return c < 0 || c >= part.num_chips; })) {
    throw std::invalid_argument(
        "schedule_gate_dag_multichip: partition does not match the DAG");
  }
  require_chip(chip, "schedule_gate_dag_multichip");
  if (transfer_cycles < 0) {
    throw std::invalid_argument(
        "schedule_gate_dag_multichip: transfer_cycles must be nonnegative");
  }
  require_topological(dag, "schedule_gate_dag_multichip");
  const int num_chips = part.num_chips;
  const int pipelines = chip.pipelines;
  const Dfg& gate_dfg = *chip.dfg;
  MultiChipScheduleResult r;
  r.num_gates = static_cast<int>(dag.gates.size());
  r.num_chips = num_chips;
  r.pipelines = pipelines;
  r.gate_end.assign(dag.gates.size(), 0);
  r.cut_wires = count_cut(dag, part.chip_of);
  r.chip_occupancy.assign(static_cast<size_t>(num_chips), 0);
  r.chip_hbm_utilization.assign(static_cast<size_t>(num_chips), 0);
  r.chip_poly_utilization.assign(static_cast<size_t>(num_chips), 0);
  if (dag.gates.empty() || gate_dfg.nodes.empty()) return r;

  // Per-chip resources: private TGSW/EP pipelines with backfilling timelines
  // (a later gate's prologue may use idle windows behind an earlier gate's
  // tail -- the Fig. 6(b) pipelining story), a private polynomial unit and a
  // private HBM channel. The inter-chip link is the one shared timeline.
  struct Chip {
    std::vector<BackfillTimeline> tgsw, ep;
    BackfillTimeline poly, hbm;
    std::vector<int64_t> pipe_avail;
  };
  std::vector<Chip> chips(static_cast<size_t>(num_chips));
  for (Chip& c : chips) {
    c.tgsw.resize(static_cast<size_t>(pipelines));
    c.ep.resize(static_cast<size_t>(pipelines));
    c.pipe_avail.assign(static_cast<size_t>(pipelines), 0);
  }
  BackfillTimeline link;
  // Lazily-created transfer completions, one per (value, destination chip):
  // every consumer on that chip waits on the same send. A multi-output LUT
  // bundle is one DAG node, hence one value -- its extra extractions never
  // pay extra transfers.
  std::vector<int64_t> transfer_end(dag.gates.size() *
                                        static_cast<size_t>(num_chips),
                                    -1);

  // Readiness-order dispatch: a gate enters the queue once every operand has
  // completed (and, cross-chip, arrived), keyed by (data-ready cycle, gate
  // id). Scheduling one gate at a time in that order models the issue logic
  // seeing only resolved dependencies -- recording order is irrelevant by
  // construction.
  std::vector<int> pending(dag.gates.size(), 0);
  std::vector<std::vector<int>> users(dag.gates.size());
  using Entry = std::pair<int64_t, int>; // (ready, gate)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    pending[i] = static_cast<int>(dag.gates[i].deps.size());
    for (const int d : dag.gates[i].deps) {
      users[d].push_back(static_cast<int>(i));
    }
    if (pending[i] == 0) queue.push({0, static_cast<int>(i)});
  }

  // Data-ready cycle of gate `u` on its own chip: operand completions, plus
  // a link transfer for every operand produced on a different chip. The
  // transfer claims the link no earlier than producer completion; the first
  // consumer chip to need a value pays for (and then shares) the send.
  const auto arrival = [&](int u) {
    const int cu = part.chip_of[static_cast<size_t>(u)];
    int64_t ready = 0;
    for (const int d : dag.gates[static_cast<size_t>(u)].deps) {
      int64_t t = r.gate_end[static_cast<size_t>(d)];
      if (part.chip_of[static_cast<size_t>(d)] != cu) {
        int64_t& sent =
            transfer_end[static_cast<size_t>(d) * num_chips + cu];
        if (sent < 0) {
          sent = link.claim(t, transfer_cycles);
          ++r.transfers;
          if (fault::should_fire(fault::kSiteInterchipDrop,
                                 fault::Scope::kArmedOnly)) {
            // Dropped on the wire: the send consumed link cycles but the
            // value never arrived -- retransmit after the failed send.
            sent = link.claim(sent, transfer_cycles);
            ++r.transfers;
            ++r.dropped_transfers;
          }
        }
        t = sent;
      }
      if (t > ready) ready = t;
    }
    return ready;
  };

  // Deps index earlier gates only, so the DAG is acyclic and every gate
  // drains through the queue.
  std::vector<int64_t> node_end(gate_dfg.nodes.size(), 0);
  while (!queue.empty()) {
    const auto [ready, gi] = queue.top();
    queue.pop();
    const GateDagNode& gate = dag.gates[gi];
    Chip& home = chips[static_cast<size_t>(part.chip_of[static_cast<size_t>(gi)])];
    int64_t end = ready;
    if (gate.bootstraps > 0) {
      // Greedy pipeline choice: the pair whose last placed gate ends
      // soonest (its nodes may still backfill earlier idle windows).
      int best = 0;
      int64_t best_start = INT64_MAX;
      for (int p = 0; p < pipelines; ++p) {
        const int64_t start =
            home.pipe_avail[static_cast<size_t>(p)] > ready
                ? home.pipe_avail[static_cast<size_t>(p)]
                : ready;
        if (start < best_start) {
          best_start = start;
          best = p;
        }
      }
      // Each bootstrap replays the per-bootstrap DFG with node-level claims;
      // consecutive bootstraps of one gate chain through the accumulator.
      int64_t base = ready;
      for (int b = 0; b < gate.bootstraps; ++b) {
        int64_t instance_end = base;
        for (size_t i = 0; i < gate_dfg.nodes.size(); ++i) {
          const DfgNode& node = gate_dfg.nodes[i];
          int64_t node_ready = base;
          for (const int d : node.deps) {
            assert(d < node.id && "DFG must be emitted in topological order");
            if (node_end[d] > node_ready) node_ready = node_end[d];
          }
          BackfillTimeline* unit = nullptr;
          switch (node.resource) {
            case Resource::kTgswCluster:
              unit = &home.tgsw[static_cast<size_t>(best)];
              break;
            case Resource::kEpCore:
              unit = &home.ep[static_cast<size_t>(best)];
              break;
            case Resource::kPolyUnit: unit = &home.poly; break;
            case Resource::kHbm: unit = &home.hbm; break;
            case Resource::kCount: break;
          }
          assert(unit != nullptr && "DFG node carries an invalid resource");
          node_end[i] = unit->claim(node_ready, node.cycles);
          if (node_end[i] > instance_end) instance_end = node_end[i];
        }
        base = instance_end;
      }
      end = base;
      home.pipe_avail[static_cast<size_t>(best)] = end;
    }
    r.gate_end[gi] = end;
    if (end > r.makespan) r.makespan = end;
    for (const int u : users[gi]) {
      if (--pending[u] == 0) queue.push({arrival(u), u});
    }
  }
  r.transfer_busy_cycles = link.busy();
  if (r.makespan > 0) {
    for (int c = 0; c < num_chips; ++c) {
      int64_t busy = 0;
      for (int p = 0; p < pipelines; ++p) {
        busy += chips[static_cast<size_t>(c)].tgsw[static_cast<size_t>(p)].busy() +
                chips[static_cast<size_t>(c)].ep[static_cast<size_t>(p)].busy();
      }
      r.chip_occupancy[static_cast<size_t>(c)] =
          static_cast<double>(busy) / (2.0 * pipelines * r.makespan);
      r.chip_hbm_utilization[static_cast<size_t>(c)] =
          static_cast<double>(chips[static_cast<size_t>(c)].hbm.busy()) /
          r.makespan;
      r.chip_poly_utilization[static_cast<size_t>(c)] =
          static_cast<double>(chips[static_cast<size_t>(c)].poly.busy()) /
          r.makespan;
    }
    r.link_utilization = static_cast<double>(link.busy()) / r.makespan;
  }
  return r;
}

GateDagScheduleResult schedule_gate_dag(const Dfg& gate_dfg, const GateDag& dag,
                                        int pipelines) {
  if (pipelines <= 0) {
    throw std::invalid_argument("schedule_gate_dag: pipelines must be positive");
  }
  // The one-chip special case of the multi-chip scheduler: a trivial
  // partition, no transfers, identical greedy placement.
  GateDagPartition one;
  one.num_chips = 1;
  one.chip_of.assign(dag.gates.size(), 0);
  one.chip_bootstraps.assign(1, dag.total_bootstraps());
  const MultiChipScheduleResult m =
      schedule_gate_dag_multichip(dag, one, {pipelines, &gate_dfg}, 0);
  GateDagScheduleResult r;
  r.num_gates = m.num_gates;
  r.pipelines = m.pipelines;
  r.makespan = m.makespan;
  r.gate_end = m.gate_end;
  if (!m.chip_occupancy.empty()) {
    r.pipeline_occupancy = m.chip_occupancy.front();
    r.hbm_utilization = m.chip_hbm_utilization.front();
    r.poly_utilization = m.chip_poly_utilization.front();
  }
  return r;
}

} // namespace matcha::sim
