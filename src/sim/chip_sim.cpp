#include "sim/chip_sim.h"

#include <stdexcept>
#include <utility>

#include "sim/scheduler.h"

namespace matcha::sim {

namespace {

/// Append a one-bootstrap gate consuming `deps`; returns its index.
int add_gate(GateDag& dag, std::vector<int> deps) {
  dag.gates.emplace_back().deps = std::move(deps);
  return static_cast<int>(dag.gates.size()) - 1;
}

} // namespace

GateDag ripple_adder_netlist(int width) {
  // Full adder i: axb = XOR(a,b); sum = XOR(axb, cin); and1 = AND(a,b);
  // and2 = AND(cin, axb); cout = OR(and1, and2). Dependencies: sum/and2 on
  // axb and previous cout; cout on and1+and2.
  GateDag dag;
  int carry = -1;
  for (int i = 0; i < width; ++i) {
    const int axb = add_gate(dag, {}); // XOR(a_i, b_i): fresh inputs
    std::vector<int> after_carry{axb};
    if (carry >= 0) after_carry.push_back(carry);
    add_gate(dag, after_carry);                  // sum_i
    const int and1 = add_gate(dag, {});          // AND(a_i, b_i)
    const int and2 = add_gate(dag, after_carry); // AND(cin, axb)
    carry = add_gate(dag, {and1, and2});         // cout
  }
  return dag;
}

GateDag array_multiplier_netlist(int width) {
  GateDag dag;
  // AND matrix: width^2 independent gates.
  std::vector<std::vector<int>> pp(width, std::vector<int>(width));
  for (int j = 0; j < width; ++j) {
    for (int i = 0; i < width; ++i) pp[j][i] = add_gate(dag, {});
  }
  // Row accumulation: each row adds into the accumulator with a ripple
  // chain (5 gates per bit, depending on the row's partial products and the
  // previous accumulator gates). Modeled coarsely: per row, width full
  // adders in sequence, each depending on the row's AND gate and the
  // previous row's corresponding adder output.
  std::vector<int> prev_row(width, -1);
  for (int j = 1; j < width; ++j) {
    int carry = -1;
    for (int i = 0; i < width; ++i) {
      std::vector<int> deps{pp[j][i]};
      if (prev_row[i] >= 0) deps.push_back(prev_row[i]);
      if (carry >= 0) deps.push_back(carry);
      // XOR, XOR, AND, AND, OR of a full adder, collapsed to the two
      // latency-relevant gates (sum, carry) plus three parallel ones.
      const int sum = add_gate(dag, deps);
      add_gate(dag, deps); // parallel AND
      add_gate(dag, deps); // parallel AND
      const int carry_gate = add_gate(dag, {sum, sum + 1, sum + 2});
      carry = add_gate(dag, {carry_gate}); // OR finalize
      prev_row[i] = sum;
    }
  }
  return dag;
}

CircuitSimResult simulate_circuit(const TfheParams& tfhe, int unroll_m,
                                  const GateDag& dag,
                                  const hw::MatchaConfig& cfg) {
  SimParams p;
  p.hw = cfg;
  p.tfhe = tfhe;
  p.unroll_m = unroll_m;

  const Dfg dfg = build_bootstrap_dfg(p);
  const ScheduleResult single = schedule(dfg);
  const GateDagScheduleResult s = schedule_gate_dag(dfg, dag, cfg.pipelines);

  CircuitSimResult out;
  out.gates = s.num_gates;
  out.total_bootstraps = dag.total_bootstraps();
  out.critical_path = static_cast<int>(dag.critical_path_bootstraps());
  out.gate_latency_ms = single.makespan / p.cycles_per_second() * 1e3;
  out.time_ms = s.makespan / p.cycles_per_second() * 1e3;
  out.pipeline_occupancy = s.pipeline_occupancy;
  out.hbm_utilization = s.hbm_utilization;
  if (out.time_ms > 0) {
    out.effective_parallelism =
        out.total_bootstraps * out.gate_latency_ms / out.time_ms;
    out.bootstraps_per_s = out.total_bootstraps / (out.time_ms * 1e-3);
  }
  return out;
}

namespace {

/// Link cycles per cross-chip LWE ciphertext: (n+1) Torus32 words over the
/// cfg.interchip_gbps link at the chip clock.
int64_t lwe_transfer_cycles(const SimParams& p) {
  const int64_t lwe_bytes = static_cast<int64_t>(p.n_lwe() + 1) * 4;
  const double link_bytes_per_cycle =
      p.hw.interchip_gbps * 1e9 / p.cycles_per_second();
  return static_cast<int64_t>(
      (lwe_bytes + link_bytes_per_cycle - 1) / link_bytes_per_cycle);
}

} // namespace

MultiChipSimResult simulate_circuit_multichip(const TfheParams& tfhe,
                                              int unroll_m, const GateDag& dag,
                                              int num_chips,
                                              const hw::MatchaConfig& cfg) {
  if (num_chips <= 0) {
    throw std::invalid_argument(
        "simulate_circuit_multichip: num_chips must be positive");
  }
  SimParams p;
  p.hw = cfg;
  p.tfhe = tfhe;
  p.unroll_m = unroll_m;

  // The true cycle model drives the refinement: every chip replays the same
  // per-bootstrap DFG; the clock and link come from cfg.
  const Dfg dfg = build_bootstrap_dfg(p);
  const ChipResources chip{cfg.pipelines, &dfg};
  const int64_t transfer_cycles = lwe_transfer_cycles(p);
  const GateDagPartition part =
      partition_gate_dag(dag, num_chips, chip, transfer_cycles);
  const MultiChipScheduleResult s =
      schedule_gate_dag_multichip(dag, part, chip, transfer_cycles);

  MultiChipSimResult out;
  out.num_chips = num_chips;
  out.gates = s.num_gates;
  out.total_bootstraps = dag.total_bootstraps();
  out.cut_wires = s.cut_wires;
  out.transfers = s.transfers;
  out.transfer_cycles = transfer_cycles;
  out.time_ms = s.makespan / p.cycles_per_second() * 1e3;
  out.transfer_busy_ms = s.transfer_busy_cycles / p.cycles_per_second() * 1e3;
  out.link_utilization = s.link_utilization;
  out.chip_occupancy = s.chip_occupancy;
  out.chip_bootstraps = part.chip_bootstraps;
  out.time_greedy_ms = part.baseline_makespan / p.cycles_per_second() * 1e3;
  out.refine_gain =
      part.baseline_makespan > 0
          ? 1.0 - static_cast<double>(s.makespan) / part.baseline_makespan
          : 0.0;
  out.partition_source =
      s.makespan < part.baseline_makespan ? "latency-aware" : "greedy-kl";
  if (out.time_ms > 0) {
    const double gate_latency_ms =
        schedule(dfg).makespan / p.cycles_per_second() * 1e3;
    out.effective_parallelism =
        out.total_bootstraps * gate_latency_ms / out.time_ms;
    out.bootstraps_per_s = out.total_bootstraps / (out.time_ms * 1e-3);
  }
  return out;
}

BatchPolicySimResult simulate_batch_policy(const TfheParams& tfhe, int unroll_m,
                                           const GateDag& circuit, int batch,
                                           int num_chips,
                                           const hw::MatchaConfig& cfg) {
  SimParams p;
  p.hw = cfg;
  p.tfhe = tfhe;
  p.unroll_m = unroll_m;

  const Dfg dfg = build_bootstrap_dfg(p);
  BatchPlanRequest req;
  req.dfg = &dfg;
  req.circuit = &circuit;
  req.batch = batch;
  req.num_chips = num_chips;
  req.pipelines = cfg.pipelines;
  req.transfer_cycles = lwe_transfer_cycles(p);
  const BatchPlan plan = plan_batch_schedule(req);

  BatchPolicySimResult out;
  out.policy = plan.policy;
  out.policy_label = policy_name(plan.policy);
  out.replica_groups = plan.replica_groups;
  out.group_size = plan.group_size;
  out.batch = batch;
  out.num_chips = num_chips;
  out.total_bootstraps = plan.batch_dag.total_bootstraps();
  out.cut_wires = plan.schedule.cut_wires;
  out.transfers = plan.schedule.transfers;
  out.time_ms = plan.schedule.makespan / p.cycles_per_second() * 1e3;
  out.link_utilization = plan.schedule.link_utilization;
  if (out.time_ms > 0) {
    out.bootstraps_per_s = out.total_bootstraps / (out.time_ms * 1e-3);
    out.circuits_per_s = batch / (out.time_ms * 1e-3);
  }
  out.considered.reserve(plan.considered.size());
  for (const BatchPlanVariant& v : plan.considered) {
    BatchPolicySimResult::Variant pv;
    pv.policy_label = policy_name(v.policy);
    pv.replica_groups = v.replica_groups;
    pv.time_ms = v.makespan / p.cycles_per_second() * 1e3;
    out.considered.push_back(std::move(pv));
  }
  return out;
}

} // namespace matcha::sim
