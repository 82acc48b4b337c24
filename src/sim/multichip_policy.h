// Batch-aware replicate-vs-shard placement across chips (round 2 of the
// multi-chip story). The inter-chip link is essentially free (<0.01% busy on
// every measured circuit) but chip *idle time* is not, so the right question
// per batch shape is not "how do I cut fewest wires" but "how do I keep every
// chip's pipelines fed":
//
//   batch >= chips     -> replicate the whole compiled circuit per chip and
//                         stripe batch items across chips: zero cut traffic,
//                         near-linear throughput (each chip owns a private
//                         HBM channel, the binding resource).
//   batch == 1         -> shard the one circuit across all chips: latency is
//                         the objective and only sharding shortens it.
//   1 < batch < chips  -> replica *groups*: split the chips into G groups of
//                         S = chips/G, stripe batch items over groups, shard
//                         each item across its group's S chips.
//
// plan_batch_schedule enumerates every divisor G of num_chips (pure
// replication G = C, pure sharding G = 1, hybrids between), prices each
// variant with the *true* cycle-level multi-chip schedule, and returns the
// variant with the smallest predicted makespan (ties prefer more
// replication -- fewer transfers for the same speed). Every variant schedules
// the same replicated batch DAG, so reported bootstrap counts are
// bit-identical across policies by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/gate_dag.h"

namespace matcha::sim {

enum class BatchPolicy {
  kReplicate, ///< one whole circuit copy per chip (G == chips)
  kShard,     ///< one group spanning every chip (G == 1, chips > 1)
  kHybrid,    ///< replica groups with sharding inside each group
};

const char* policy_name(BatchPolicy policy);

struct BatchPlanRequest {
  const Dfg* dfg = nullptr;         ///< per-bootstrap DFG (homogeneous chips)
  const GateDag* circuit = nullptr; ///< one batch item
  int batch = 1;
  int num_chips = 1;
  int pipelines = 1;
  int64_t transfer_cycles = 0;
};

/// One candidate placement the policy priced.
struct BatchPlanVariant {
  BatchPolicy policy = BatchPolicy::kReplicate;
  int replica_groups = 1; ///< G
  int group_size = 1;     ///< S = num_chips / G
  int64_t makespan = 0;   ///< true simulated cycles for the whole batch
  int64_t cut_wires = 0;
  int64_t transfers = 0;
  int64_t total_bootstraps = 0; ///< whole-batch count (identical across variants)
};

struct BatchPlan {
  BatchPolicy policy = BatchPolicy::kReplicate;
  int replica_groups = 1;
  int group_size = 1;
  GateDag batch_dag;          ///< replicate_gate_dag(circuit, batch)
  GateDagPartition partition; ///< chosen batch-item placement across chips
  MultiChipScheduleResult schedule; ///< cycle-level schedule of the choice
  std::vector<BatchPlanVariant> considered; ///< every variant priced, G descending
};

/// Price every replicate/shard/hybrid variant for this batch shape and keep
/// the one with the smallest simulated makespan. Deterministic.
BatchPlan plan_batch_schedule(const BatchPlanRequest& req);

} // namespace matcha::sim
