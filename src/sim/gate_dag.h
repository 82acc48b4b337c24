// Dependency-aware scheduling of a whole gate *circuit* onto the MATCHA
// chip model: where scheduler.h's schedule_batch maps identical independent
// bootstrappings round-robin, this takes the true gate dependency DAG (as
// recorded by exec/GateGraph -- see exec/sim_bridge.h) and dispatches gates
// by readiness: a gate issues as soon as its operands are complete and a
// TGSW-cluster/EP-core pipeline is free, with the polynomial unit and HBM
// key stream shared chip-wide. This is the honest chip-side view of
// wavefront parallelism -- recording order never matters, only dependencies.
//
// Multi-chip: partition_gate_dag shards the DAG across several chips and
// schedule_gate_dag_multichip gives every chip its own pipelines, polynomial
// unit, and HBM channel; a wire whose producer and consumer sit on different
// chips claims the shared inter-chip link for a transfer before the consumer
// may issue (an HBM-like edge inserted into the dependence graph).
//
// Round 2 (batch-aware scheduling): the partition objective is *predicted
// makespan*, not cut size -- the inter-chip link sits below 0.01% utilization
// on every measured circuit, so cut wires are nearly free while chip idle
// time is not. Every chip of a run is a copy of one ChipResources; the
// refined partition_gate_dag scores candidates on the true multi-chip
// schedule of those chips, and the plain two-argument partition_gate_dag is
// the greedy-KL min-cut baseline, which the refined call also schedules and
// returns whenever it is not beaten.
// sim/multichip_policy.h builds on this to pick replicate-vs-shard
// placements per batch shape.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/dfg.h"

namespace matcha::sim {

/// One gate of a circuit-level DAG. `bootstraps` is the gate's cost in gate
/// bootstrappings (0 for NOT -- a free linear op; 2 for MUX; 1 for a fused
/// k-input LUT, whose functional bootstrap runs the same datapath as a gate
/// bootstrap); `deps` are the indices of earlier gates whose outputs it
/// consumes.
struct GateDagNode {
  int bootstraps = 1;
  /// Anchor affinity for zero-bootstrap wire nodes (NOT, kFreeOr): the dep
  /// this node should share a chip with whenever the partition allows it.
  /// A wire node placed away from every operand would pay transfers for all
  /// of them, so the round-2 partitioner (the refined partition_gate_dag)
  /// snaps pinned nodes next to their anchor.
  /// -1 = unpinned.
  int pin = -1;
  std::vector<int> deps;
};

struct GateDag {
  std::vector<GateDagNode> gates;

  int64_t total_bootstraps() const;
  /// Longest dependency chain, weighted in bootstraps -- the depth bound no
  /// amount of pipelines can beat. Throws std::invalid_argument when a dep
  /// or pin does not index an earlier gate.
  int64_t critical_path_bootstraps() const;
};

/// `copies` disjoint instances of `circuit`, concatenated (copy k occupies
/// indices [k*n, (k+1)*n)). The batch-DAG building block of the replicate-
/// vs-shard policy: batch items are independent, so their DAGs share no
/// edges and the scheduler interleaves them freely. Throws
/// std::invalid_argument when a dep or pin does not index an earlier gate.
GateDag replicate_gate_dag(const GateDag& circuit, int copies);

/// A sharding of a GateDag across `num_chips` chips: every gate lives on
/// exactly one chip, and chip ids are monotone along dependence edges
/// (chip_of[dep] <= chip_of[gate]), so the chip-level quotient graph is
/// acyclic by construction -- no transfer cycle can deadlock the schedule.
struct GateDagPartition {
  int num_chips = 1;
  /// Chips that actually received at least one gate. Degenerate requests
  /// (num_chips above the bootstrap-bearing node count, tiny DAGs) shrink to
  /// fewer non-empty chips -- the extra chips stay valid but idle.
  int used_chips = 1;
  std::vector<int> chip_of;             ///< per gate
  std::vector<int64_t> chip_bootstraps; ///< per-chip load (bootstraps)
  int64_t cut_wires = 0; ///< dependence edges whose endpoints differ in chip
  /// Makespan of the greedy-KL baseline (two-argument partition_gate_dag)
  /// on the chips the refinement ran against; 0 without them.
  int64_t baseline_makespan = 0;
};

/// The partition `chip_of` (one chip id in [0, num_chips) per gate) with its
/// per-chip loads, cut wires and used chips derived from the DAG.
/// Throws std::invalid_argument when chip_of does not match the DAG or a
/// chip id is out of range.
GateDagPartition summarize_partition(const GateDag& dag, int num_chips,
                                     std::vector<int> chip_of);

/// The chip every multi-chip run copies: its pipeline count and the
/// per-bootstrap DFG it executes (unroll m and clocking baked in by
/// sim/dfg.h). The DFG must outlive every call that takes the chip.
struct ChipResources {
  int pipelines = 1;
  const Dfg* dfg = nullptr;
};

/// Shard the DAG across `num_chips` copies of `chip`. The seed is
/// chip-monotone by construction (weight-balanced topological prefix
/// blocks); refinement is a prefix-boundary coordinate descent plus a
/// single-gate polish against the *true* multi-chip schedule -- cut size
/// rises freely, only predicted makespan matters -- and never breaks edge
/// monotonicity. Zero-bootstrap wire nodes then snap onto their anchor's
/// chip (GateDagNode::pin) whenever edge monotonicity allows. The greedy-KL
/// baseline (the two-argument call, not snapped) is scheduled too and
/// returned unless the refined partition is strictly faster;
/// baseline_makespan records its makespan either way, so the result is never
/// slower than the baseline.
/// Deterministic for a given DAG and chip.
/// Throws std::invalid_argument when a dep or pin does not index an earlier
/// gate, or the chip has no DFG or no pipelines.
GateDagPartition partition_gate_dag(const GateDag& dag, int num_chips,
                                    const ChipResources& chip,
                                    int64_t transfer_cycles);

/// The baseline: greedy-KL cut minimization over a prefix seed (plus the
/// degenerate-DAG fix) under a balanced per-chip load cap, no wire-node
/// snapping.
GateDagPartition partition_gate_dag(const GateDag& dag, int num_chips);

struct MultiChipScheduleResult {
  int num_gates = 0;
  int num_chips = 1;
  int pipelines = 0;             ///< per chip
  int64_t makespan = 0;          ///< circuit completion (cycles)
  std::vector<int64_t> gate_end; ///< per-gate completion cycle
  int64_t cut_wires = 0;         ///< dependence edges crossing chips
  int64_t transfers = 0; ///< distinct (value, destination-chip) link sends
  int64_t dropped_transfers = 0; ///< injected link drops (each retransmitted)
  int64_t transfer_busy_cycles = 0; ///< inter-chip link busy cycles
  double link_utilization = 0;
  std::vector<double> chip_occupancy;       ///< per-chip TGSW+EP busy fraction
  std::vector<double> chip_hbm_utilization; ///< per-chip HBM busy fraction
  std::vector<double> chip_poly_utilization;
};

/// Multi-chip variant of schedule_gate_dag: each of part.num_chips chips
/// owns chip.pipelines TGSW/EP pairs replaying chip.dfg, plus a private
/// polynomial unit and HBM channel; gates run on the chip `part` assigns
/// them. A value consumed on a different chip than it was produced on first
/// claims the shared inter-chip link for `transfer_cycles` (earliest start
/// at producer completion) -- one transfer per distinct (value, destination
/// chip), reused by every consumer there; a multi-output LUT bundle is one
/// value, so all its extractions cross in one send. With one chip this
/// reduces exactly to schedule_gate_dag.
/// Throws std::invalid_argument on a partition that does not match the DAG
/// (including a chip id outside [0, part.num_chips)), a chip without a DFG
/// or pipelines, or a dep or pin that does not index an earlier gate.
MultiChipScheduleResult schedule_gate_dag_multichip(
    const GateDag& dag, const GateDagPartition& part,
    const ChipResources& chip, int64_t transfer_cycles);

/// One chip's schedule: a circuit here, or a batch of identical gates from
/// scheduler.h's schedule_batch.
struct GateDagScheduleResult {
  int num_gates = 0;
  int pipelines = 0;
  int64_t makespan = 0;           ///< completion of the last gate (cycles)
  std::vector<int64_t> gate_end;  ///< per-gate completion cycle
  double pipeline_occupancy = 0;  ///< mean TGSW+EP busy fraction
  double hbm_utilization = 0;
  double poly_utilization = 0;
};

/// Map the circuit DAG onto a chip with `pipelines` TGSW-cluster/EP-core
/// pairs. Gates are dispatched in readiness order (earliest data-ready
/// first) onto the pipeline that can start them soonest; each bootstrap of a
/// gate runs the full per-bootstrap DFG `gate_dfg` with its node-level
/// resource claims (private TGSW/EP units, shared poly unit + HBM channel).
/// A gate's bootstraps are sequential on one pipeline (the accumulator
/// dependence), matching the hardware constraint that one blind rotation
/// never spreads across pipelines.
GateDagScheduleResult schedule_gate_dag(const Dfg& gate_dfg, const GateDag& dag,
                                        int pipelines);

} // namespace matcha::sim
