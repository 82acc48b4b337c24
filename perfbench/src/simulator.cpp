// Simulator workload: host time of the cycle-level multi-chip simulation of
// the compiled mul8cmp circuit at the paper's parameters. It never executes a
// ciphertext, so the software layers read 0 here.
#include <cassert>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "exec/sim_bridge.h"
#include "hw/matcha_design.h"
#include "sim/chip_sim.h"
#include "workloads.h"

namespace perfbench {

using namespace matcha;

namespace {

constexpr int kUnrollM = 3;
constexpr int kChips = 4;
constexpr int kSetupsPerRound = 5;
constexpr int kSingleChipRuns = 3;

/// The partition and schedule facts every request must reproduce exactly.
std::string signature(const sim::MultiChipSimResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g/%.17g/%lld/%lld", r.time_ms,
                r.time_greedy_ms, static_cast<long long>(r.transfers),
                static_cast<long long>(r.cut_wires));
  std::string s(buf);
  for (const int64_t b : r.chip_bootstraps) s += "/" + std::to_string(b);
  return s;
}

} // namespace

Report run_simulator(const Options& opt, Tracer& tr) {
  Report rep;
  const TfheParams paper = TfheParams::security110();
  const double cycles_per_ms = hw::MatchaConfig{}.process.clock_ghz * 1e6;

  // Set-up: record + compile the circuit and project it to a GateDag. One
  // set-up takes a few milliseconds while the host's speed drifts over tens
  // of seconds, so set-ups are timed in rounds spread over the run: one
  // before the warm-up and one before every request. Every set-up must
  // compile the same graph.
  std::vector<double> setup_s, compile_ms;
  exec::CompiledGraph compiled;
  sim::GateDag dag;
  std::string first_graph;
  const auto setup_round = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const auto t0 = Clock::now();
      {
        auto s = tr.span("exec.compile");
        const Circuit circuit(CircuitKind::kMul8Cmp);
        compiled = circuit.builder.compile();
      }
      compile_ms.push_back(ms_since(t0));
      {
        auto s = tr.span("exec.to_gate_dag");
        dag = exec::to_gate_dag(compiled.graph);
      }
      setup_s.push_back(ms_since(t0) * 1e-3);
      const std::string graph =
          std::to_string(compiled.graph.bootstrap_count()) + "/" +
          std::to_string(compiled.stats.depth_after);
      if (first_graph.empty()) first_graph = graph;
      if (graph != first_graph) rep.mismatches.push_back("exec.bootstraps/exec.depth");
    }
  };
  tr.set_enabled(opt.trace);
  setup_round();
  tr.set_enabled(false);
  rep.set("exec.bootstraps", static_cast<double>(compiled.graph.bootstrap_count()));
  rep.set("exec.depth", compiled.stats.depth_after);
  rep.set("exec.sample_extracts",
          static_cast<double>(compiled.graph.extraction_count()));
  int64_t dag_bootstraps = 0;
  for (const auto& g : dag.gates) dag_bootstraps += g.bootstraps;

  // Every request must conserve the DAG's bootstraps across chips and
  // reproduce the warm-up's schedule exactly (the simulator is
  // deterministic).
  const auto check = [&](const sim::MultiChipSimResult& r,
                         const std::string& want) {
    const int64_t placed = std::accumulate(r.chip_bootstraps.begin(),
                                           r.chip_bootstraps.end(), int64_t{0});
    return placed == dag_bootstraps && signature(r) == want;
  };

  const sim::MultiChipSimResult warm =
      sim::simulate_circuit_multichip(paper, kUnrollM, dag, kChips);
  const std::string want = signature(warm);
  rep.attempted += 1;
  rep.failed += check(warm, want) ? 0 : 1;

  // A traced run traces the even requests only (see software.cpp).
  std::vector<double> host_ms, untraced_ms, traced_ms;
  const size_t min_requests = opt.trace ? 2 : 1;
  const auto w0 = Clock::now();
  for (int64_t req = 1;
       host_ms.size() < min_requests || ms_since(w0) < opt.seconds * 1e3; ++req) {
    tr.set_enabled(false);
    setup_round();
    const bool traced = opt.trace && req % 2 == 0;
    tr.set_enabled(traced);
    const auto t0 = Clock::now();
    auto root = tr.span("bench.request", req);
    sim::MultiChipSimResult r;
    {
      auto s = tr.span("sim.simulate_circuit_multichip", req);
      r = sim::simulate_circuit_multichip(paper, kUnrollM, dag, kChips);
    }
    {
      auto s = tr.span("bench.check", req);
      rep.attempted += 1;
      rep.failed += check(r, want) ? 0 : 1;
    }
    host_ms.push_back(ms_since(t0));
    (traced ? traced_ms : untraced_ms).push_back(host_ms.back());
  }
  tr.set_enabled(false);

  const int64_t setups = static_cast<int64_t>(setup_s.size());
  rep.set("setup_s", median(setup_s), setups);
  rep.set("exec.compile_ms", median(compile_ms), setups);
  const int64_t n = static_cast<int64_t>(host_ms.size());
  rep.requests = n;
  double total_ms = 0;
  for (const double ms : host_ms) total_ms += ms;
  rep.set("latency_p50_ms", median(host_ms), n);
  if (n >= 100) rep.latency_p90_ms = quantile(host_ms, 0.9);
  rep.set("circuits_per_s", static_cast<double>(n) * 1e3 / total_ms, n);
  rep.set("sim.host_ms_multichip", median(host_ms), n);
  rep.set("sim.makespan_cycles", warm.time_ms * cycles_per_ms);
  rep.set("sim.makespan_greedy_cycles", warm.time_greedy_ms * cycles_per_ms);
  rep.set("sim.refine_gain", warm.refine_gain);
  rep.set("sim.transfers", static_cast<double>(warm.transfers));
  rep.set("sim.cut_wires", static_cast<double>(warm.cut_wires));
  double occupancy = 0;
  for (const double o : warm.chip_occupancy) occupancy += o;
  rep.set("sim.chip_occupancy_mean",
          warm.chip_occupancy.empty() ? 0 : occupancy / warm.chip_occupancy.size());
  rep.set("sim.link_utilization", warm.link_utilization);
  rep.set("bench.error_rate",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          rep.attempted);

  if (opt.trace) {
    const auto self = tr.self_ms_per_request();
    const int64_t nt = static_cast<int64_t>(traced_ms.size());
    for (const char* layer : {"sim", "bench"}) {
      const auto it = self.find(layer);
      rep.set(std::string(layer) + ".self_ms", it == self.end() ? 0 : it->second, nt);
    }
    const double base = median(untraced_ms);
    rep.set("trace.overhead_pct",
            base > 0 ? 100.0 * (median(traced_ms) / base - 1.0) : 0, nt);
    // Scheduling only: the single-chip DAG schedule without partitioning.
    std::vector<double> single_ms;
    tr.set_enabled(true);
    for (int i = 0; i < kSingleChipRuns; ++i) {
      auto s = tr.span("sim.simulate_circuit");
      const auto t0 = Clock::now();
      const sim::CircuitSimResult one = sim::simulate_circuit(paper, kUnrollM, dag);
      single_ms.push_back(ms_since(t0));
      rep.failed += one.total_bootstraps == dag_bootstraps ? 0 : 1;
    }
    tr.set_enabled(false);
    rep.set("sim.host_ms_single_chip", median(single_ms), kSingleChipRuns);
  }
  rep.set("peak_rss_mb", peak_rss_mb());
  return rep;
}

} // namespace perfbench
