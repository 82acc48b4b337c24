#include "sim/multichip_policy.h"

#include <map>
#include <stdexcept>
#include <utility>

namespace matcha::sim {

const char* policy_name(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kReplicate: return "replicate";
    case BatchPolicy::kShard: return "shard";
    case BatchPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

BatchPlan plan_batch_schedule(const BatchPlanRequest& req) {
  if (req.dfg == nullptr || req.circuit == nullptr) {
    throw std::invalid_argument(
        "plan_batch_schedule: dfg and circuit are required");
  }
  if (req.batch <= 0 || req.num_chips <= 0 || req.pipelines <= 0) {
    throw std::invalid_argument(
        "plan_batch_schedule: batch, num_chips, pipelines must be positive");
  }
  const int C = req.num_chips;
  const int n = static_cast<int>(req.circuit->gates.size());

  BatchPlan plan;
  plan.batch_dag = replicate_gate_dag(*req.circuit, req.batch);

  const ChipResources chip{req.pipelines, req.dfg};

  // Shard layouts of `copies` stacked circuit instances across S chips are
  // identical for every group with the same copy count -- cache them.
  // A single item sharded across its group gets the full true-cycle-model
  // refinement (never slower than the greedy-KL baseline); multi-copy
  // groups use the weight-balanced baseline, whose contiguous blocks stripe
  // whole copies across the group -- already the right shape for
  // independent items.
  std::map<std::pair<int, int>, std::vector<int>> shard_cache;
  const auto shard_layout = [&](int copies, int S) -> const std::vector<int>& {
    auto it = shard_cache.find({copies, S});
    if (it != shard_cache.end()) return it->second;
    const GateDag sub = replicate_gate_dag(*req.circuit, copies);
    GateDagPartition layout;
    if (copies == 1 && S > 1) {
      layout = partition_gate_dag(sub, S, chip, req.transfer_cycles);
    } else {
      layout = partition_gate_dag(sub, S);
    }
    return shard_cache.emplace(std::make_pair(copies, S), layout.chip_of)
        .first->second;
  };

  int64_t best_makespan = -1;
  // Divisors of C, largest first: ties go to more replication (fewer
  // transfers at equal speed).
  for (int G = C; G >= 1; --G) {
    if (C % G != 0) continue;
    const int S = C / G;
    std::vector<int> chip_of(plan.batch_dag.gates.size(), 0);
    for (int k = 0; k < req.batch; ++k) {
      const int g = k % G;           // replica group of batch item k
      const int j = k / G;           // position within the group's stack
      const int copies = (req.batch - 1 - g) / G + 1; // items this group holds
      const std::vector<int>& layout = shard_layout(copies, S);
      for (int i = 0; i < n; ++i) {
        chip_of[static_cast<size_t>(k) * n + i] =
            g * S + layout[static_cast<size_t>(j) * n + i];
      }
    }
    const GateDagPartition part =
        summarize_partition(plan.batch_dag, C, std::move(chip_of));
    const MultiChipScheduleResult sched = schedule_gate_dag_multichip(
        plan.batch_dag, part, chip, req.transfer_cycles);

    BatchPlanVariant v;
    v.policy = G == C ? BatchPolicy::kReplicate
               : G == 1 ? BatchPolicy::kShard
                        : BatchPolicy::kHybrid;
    if (C == 1) v.policy = BatchPolicy::kReplicate; // one chip: G == C == 1
    v.replica_groups = G;
    v.group_size = S;
    v.makespan = sched.makespan;
    v.cut_wires = sched.cut_wires;
    v.transfers = sched.transfers;
    v.total_bootstraps = plan.batch_dag.total_bootstraps();
    plan.considered.push_back(v);

    if (best_makespan < 0 || sched.makespan < best_makespan) {
      best_makespan = sched.makespan;
      plan.policy = v.policy;
      plan.replica_groups = G;
      plan.group_size = S;
      plan.partition = part;
      plan.schedule = sched;
    }
  }
  return plan;
}

} // namespace matcha::sim
