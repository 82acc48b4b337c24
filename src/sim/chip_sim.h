// Chip-level projection: schedule a whole Boolean *circuit* (a DAG of TFHE
// gates) onto MATCHA's bootstrapping pipelines, respecting gate dependencies
// and the shared HBM key stream. This answers the paper's motivating
// question -- how fast does an encrypted adder/CPU step run -- on top of the
// single-gate cycle simulation.
//
// Every entry point rides sim/gate_dag.h's readiness-dispatch scheduler: each
// bootstrap replays the full per-bootstrap DFG with node-level resource
// claims, so HBM contention and pipeline occupancy come from the same model
// as the single-gate simulation instead of a coarse service-time stretch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/gate_dag.h"
#include "sim/matcha_sim.h"
#include "sim/multichip_policy.h"

namespace matcha::sim {

/// Builders for the workloads the examples use: every gate costs one
/// bootstrap. Recorded exec::GateGraph circuits arrive as a GateDag via
/// exec/sim_bridge.h instead.
GateDag ripple_adder_netlist(int width);      ///< 5 gates per full adder
GateDag array_multiplier_netlist(int width);  ///< AND matrix + adder rows

struct CircuitSimResult {
  int gates = 0;                    ///< DAG nodes (free NOT gates included)
  int64_t total_bootstraps = 0;
  int critical_path = 0;            ///< longest dependency chain (bootstraps)
  double gate_latency_ms = 0;       ///< one bootstrapping alone on one pipeline
  double time_ms = 0;               ///< circuit makespan on the chip
  /// total_bootstraps * gate_latency / time: speedup over running every
  /// bootstrap back to back on one pipeline.
  double effective_parallelism = 0;
  double bootstraps_per_s = 0;
  double pipeline_occupancy = 0;    ///< mean TGSW+EP busy fraction
  double hbm_utilization = 0;
};

/// Schedule the circuit DAG onto `cfg.pipelines` pipelines by dependency
/// readiness (sim/gate_dag.h).
CircuitSimResult simulate_circuit(const TfheParams& tfhe, int unroll_m,
                                  const GateDag& dag,
                                  const hw::MatchaConfig& cfg = {});

struct MultiChipSimResult {
  int num_chips = 1;
  int gates = 0;
  int64_t total_bootstraps = 0;
  int64_t cut_wires = 0;    ///< dependence edges crossing chips
  int64_t transfers = 0;    ///< distinct (value, destination-chip) sends
  int64_t transfer_cycles = 0; ///< link cycles per send
  double time_ms = 0;       ///< circuit makespan across the chips
  double transfer_busy_ms = 0; ///< inter-chip link busy time
  double link_utilization = 0;
  double bootstraps_per_s = 0;
  /// total_bootstraps * single-pipeline gate latency / time.
  double effective_parallelism = 0;
  std::vector<double> chip_occupancy;       ///< per-chip TGSW+EP busy fraction
  std::vector<int64_t> chip_bootstraps;     ///< per-chip load (partition)
  /// Round-2 A/B: partition_gate_dag schedules both the greedy-KL min-cut
  /// baseline partition and the latency-aware refinement, and the faster one
  /// is reported above. time_greedy_ms is the baseline's makespan;
  /// refine_gain is 1 - time_ms / time_greedy_ms (>= 0 by construction).
  double time_greedy_ms = 0;
  double refine_gain = 0;
  std::string partition_source; ///< "greedy-kl" or "latency-aware"
};

/// Shard the circuit DAG across `num_chips` identical chips, each with
/// cfg.pipelines pipelines replaying the unroll_m per-bootstrap DFG
/// (partition_gate_dag), and schedule it with per-chip pipelines/poly/HBM
/// resources; cross-chip wires ride a cfg.interchip_gbps link, one LWE
/// ciphertext per transfer. With one chip the makespan equals
/// simulate_circuit's. Throws std::invalid_argument when num_chips <= 0.
MultiChipSimResult simulate_circuit_multichip(const TfheParams& tfhe,
                                              int unroll_m, const GateDag& dag,
                                              int num_chips,
                                              const hw::MatchaConfig& cfg = {});

struct BatchPolicySimResult {
  BatchPolicy policy = BatchPolicy::kReplicate;
  std::string policy_label;  ///< "replicate" / "shard" / "hybrid"
  int replica_groups = 1;    ///< G
  int group_size = 1;        ///< chips per group
  int batch = 1;
  int num_chips = 1;
  int64_t total_bootstraps = 0; ///< whole batch (identical across policies)
  int64_t cut_wires = 0;
  int64_t transfers = 0;
  double time_ms = 0;           ///< whole-batch makespan
  double bootstraps_per_s = 0;
  double circuits_per_s = 0;    ///< batch / time
  double link_utilization = 0;
  /// Every variant priced: (policy label, replica groups, makespan ms).
  struct Variant {
    std::string policy_label;
    int replica_groups = 1;
    double time_ms = 0;
  };
  std::vector<Variant> considered;
};

/// Run the replicate-vs-shard policy (sim/multichip_policy.h) for a batch of
/// `batch` identical circuits on `num_chips` chips and report the chosen
/// variant's cycle-accurate schedule in physical time.
BatchPolicySimResult simulate_batch_policy(const TfheParams& tfhe, int unroll_m,
                                           const GateDag& circuit, int batch,
                                           int num_chips,
                                           const hw::MatchaConfig& cfg = {});

} // namespace matcha::sim
