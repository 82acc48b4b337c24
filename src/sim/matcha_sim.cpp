#include "sim/matcha_sim.h"

#include <algorithm>

namespace matcha::sim {

GateSimResult simulate_gate(const TfheParams& tfhe, int unroll_m,
                            const hw::MatchaConfig& cfg) {
  SimParams p;
  p.hw = cfg;
  p.tfhe = tfhe;
  p.unroll_m = unroll_m;

  const Dfg dfg = build_bootstrap_dfg(p);
  const ScheduleResult s = schedule(dfg);

  GateSimResult r;
  r.unroll_m = unroll_m;
  r.cycles = s.makespan;
  r.latency_ms = s.makespan / p.cycles_per_second() * 1e3;
  r.hbm_mb = (p.bootstrap_bk_bytes() + p.ks_bytes()) / 1e6;
  r.util_tgsw = s.utilization(Resource::kTgswCluster);
  r.util_ep = s.utilization(Resource::kEpCore);
  r.util_poly = s.utilization(Resource::kPolyUnit);
  r.util_hbm = s.utilization(Resource::kHbm);

  // Activity-based energy: busy cycles at unit peak power + idle leakage
  // (15% of peak), plus the uncore (SPM + crossbars + memctrl) running for
  // the whole gate. The poly unit and HBM are shared across the chip's
  // pipelines; charge this gate 1/pipelines of them.
  const double sec_per_cycle = 1.0 / p.cycles_per_second();
  constexpr double kIdleFraction = 0.15;
  auto component_j = [&](double peak_w, int64_t busy) {
    const double busy_s = busy * sec_per_cycle;
    const double total_s = s.makespan * sec_per_cycle;
    return peak_w * busy_s + kIdleFraction * peak_w * (total_s - busy_s);
  };
  const double tgsw_j =
      component_j(hw::tgsw_cluster_power_w(cfg), s.busy[static_cast<int>(Resource::kTgswCluster)]);
  const double ep_j =
      component_j(hw::ep_core_power_w(cfg), s.busy[static_cast<int>(Resource::kEpCore)]);
  const double poly_j =
      component_j(hw::poly_unit_power_w(cfg), s.busy[static_cast<int>(Resource::kPolyUnit)]) /
      cfg.pipelines;
  const double uncore_j =
      hw::uncore_power_w(cfg) * s.makespan * sec_per_cycle / cfg.pipelines;
  const double total_j = tgsw_j + ep_j + poly_j + uncore_j;
  r.energy_tgsw_mj = tgsw_j * 1e3;
  r.energy_ep_mj = ep_j * 1e3;
  r.energy_poly_mj = poly_j * 1e3;
  r.energy_uncore_mj = uncore_j * 1e3;
  r.energy_mj = total_j * 1e3;
  r.avg_power_w = total_j / (s.makespan * sec_per_cycle);

  // Chip throughput: `pipelines` concurrent gates, capped by the HBM stream.
  const double per_pipeline = 1.0 / (r.latency_ms * 1e-3);
  const double hbm_cap = cfg.hbm_gbps * 1e9 / (r.hbm_mb * 1e6);
  r.gates_per_s = std::min(cfg.pipelines * per_pipeline, hbm_cap);
  // Throughput/Watt uses the chip TDP, as the paper does.
  r.gates_per_s_per_w = r.gates_per_s / hw::compute_design_cost(cfg).total_power_w;
  return r;
}

BatchSimResult simulate_batch(const TfheParams& tfhe, int unroll_m,
                              int num_gates, const hw::MatchaConfig& cfg) {
  SimParams p;
  p.hw = cfg;
  p.tfhe = tfhe;
  p.unroll_m = unroll_m;

  const Dfg dfg = build_bootstrap_dfg(p);
  const ScheduleResult single = schedule(dfg);
  const GateDagScheduleResult b = schedule_batch(dfg, num_gates, cfg.pipelines);

  BatchSimResult r;
  r.num_gates = num_gates;
  r.pipelines = cfg.pipelines;
  r.unroll_m = unroll_m;
  r.single_gate_cycles = single.makespan;
  r.makespan_cycles = b.makespan;
  r.makespan_ms = b.makespan / p.cycles_per_second() * 1e3;
  if (b.makespan > 0) {
    r.gates_per_s = num_gates / (b.makespan / p.cycles_per_second());
    r.speedup_vs_serial =
        static_cast<double>(num_gates) * single.makespan / b.makespan;
  }
  r.pipeline_occupancy = b.pipeline_occupancy;
  r.hbm_utilization = b.hbm_utilization;
  r.poly_utilization = b.poly_utilization;
  return r;
}

} // namespace matcha::sim
