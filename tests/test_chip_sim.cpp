#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exec/circuit_builder.h"
#include "exec/sim_bridge.h"
#include "sim/chip_sim.h"

namespace matcha::sim {
namespace {

const TfheParams kParams = TfheParams::security110();

/// Exact partition and schedule results, captured before the simulator's
/// timeline and probe speed-ups, so that any later speed-up must reproduce
/// every simulated number, not just the inequalities the tests also check.
struct Golden {
  double time_ms, time_greedy_ms;
  int64_t transfers, cut_wires;
  std::vector<int64_t> chip_bootstraps;
  std::string source = "latency-aware"; ///< which partition won the A/B
};

void expect_golden(const MultiChipSimResult& r, const Golden& g) {
  EXPECT_DOUBLE_EQ(r.time_ms, g.time_ms);
  EXPECT_DOUBLE_EQ(r.time_greedy_ms, g.time_greedy_ms);
  EXPECT_EQ(r.transfers, g.transfers);
  EXPECT_EQ(r.cut_wires, g.cut_wires);
  EXPECT_EQ(r.chip_bootstraps, g.chip_bootstraps);
  EXPECT_EQ(r.partition_source, g.source);
}

/// Every gate one bootstrap, every dep an earlier gate.
void expect_unit_topological(const GateDag& dag) {
  for (size_t i = 0; i < dag.gates.size(); ++i) {
    EXPECT_EQ(dag.gates[i].bootstraps, 1);
    EXPECT_EQ(dag.gates[i].pin, -1);
    for (const int d : dag.gates[i].deps) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, static_cast<int>(i));
    }
  }
}

TEST(CircuitBuilders, RippleAdderShape) {
  const GateDag dag = ripple_adder_netlist(4);
  ASSERT_EQ(dag.gates.size(), 20u); // 5 gates per full adder
  expect_unit_topological(dag);
  // The carry-out of full adder 0 feeds the sum and AND of full adder 1.
  EXPECT_EQ(dag.gates[4].deps, (std::vector<int>{2, 3}));
  EXPECT_EQ(dag.gates[6].deps, (std::vector<int>{5, 4}));
  EXPECT_EQ(dag.gates[8].deps, (std::vector<int>{5, 4}));
  EXPECT_EQ(dag.critical_path_bootstraps(), 9);
}

TEST(CircuitBuilders, MultiplierShape) {
  const GateDag dag = array_multiplier_netlist(4);
  // 16 ANDs, then 3 rows of 4 five-gate adders.
  ASSERT_EQ(dag.gates.size(), 16u + 3 * 4 * 5);
  expect_unit_topological(dag);
  EXPECT_GT(dag.gates.size(), ripple_adder_netlist(4).gates.size());
  // The first adder of row 1 reads only its partial product.
  EXPECT_EQ(dag.gates[16].deps, (std::vector<int>{4}));
  EXPECT_EQ(dag.gates[19].deps, (std::vector<int>{16, 17, 18}));
  EXPECT_EQ(dag.gates[20].deps, (std::vector<int>{19}));
}

TEST(ChipSim, AdderRunsFasterThanSerial) {
  // At m=1 the chip is compute-bound: the adder's independent gates overlap
  // almost to the 40/17 dependency bound. At m=3 the same circuit is
  // HBM-bound (the paper's memory-bound regime): the bigger unrolled key
  // stream erodes gate-level overlap, even though per-gate latency shrank.
  const GateDag dag = ripple_adder_netlist(8);
  const auto r1 = simulate_circuit(kParams, 1, dag);
  EXPECT_EQ(r1.gates, static_cast<int>(dag.gates.size()));
  EXPECT_GT(r1.effective_parallelism, 1.8);
  EXPECT_LT(r1.time_ms, r1.gates * r1.gate_latency_ms);
  // But not faster than the critical path allows.
  EXPECT_GE(r1.time_ms, r1.critical_path * r1.gate_latency_ms * 0.99);
  const auto r3 = simulate_circuit(kParams, 3, dag);
  EXPECT_GT(r3.effective_parallelism, 1.0);
  EXPECT_LT(r3.effective_parallelism, r1.effective_parallelism);
  EXPECT_GT(r3.hbm_utilization, r1.hbm_utilization);
  // Unrolling still wins on absolute latency.
  EXPECT_LT(r3.time_ms, r1.time_ms);
}

TEST(ChipSim, CriticalPathMatchesRippleStructure) {
  const auto r = simulate_circuit(kParams, 3, ripple_adder_netlist(4));
  // Carry chain: ~3 gates of depth per full-adder stage.
  EXPECT_GE(r.critical_path, 8);
  EXPECT_LE(r.critical_path, 14);
}

TEST(ChipSim, WideCircuitSaturatesPipelines) {
  // 64 independent gates on 8 pipelines: parallelism near 8 (HBM permitting).
  GateDag flat;
  flat.gates.resize(64);
  const auto r = simulate_circuit(kParams, 1, flat);
  EXPECT_GT(r.effective_parallelism, 4.0);
  EXPECT_LE(r.effective_parallelism, 8.01);
}

TEST(ChipSim, HbmThrottlesWideCircuitsAtHighM) {
  GateDag flat;
  flat.gates.resize(64);
  const auto r3 = simulate_circuit(kParams, 3, flat);
  hw::MatchaConfig fat;
  fat.hbm_gbps = 5120.0;
  const auto rfat = simulate_circuit(kParams, 3, flat, fat);
  EXPECT_LT(rfat.time_ms, r3.time_ms);
}

TEST(ChipSim, WeightedGateDagEntryPoint) {
  // The GateDag overload carries per-gate bootstrap weights: free NOT gates
  // and double-cost MUXes, dispatched by dependency readiness.
  GateDag dag;
  dag.gates.resize(6);
  dag.gates[2].deps = {0, 1};
  dag.gates[2].bootstraps = 2; // a MUX
  dag.gates[3].deps = {2};
  dag.gates[3].bootstraps = 0; // a NOT: free
  dag.gates[4].deps = {2};
  dag.gates[5].deps = {3, 4};
  const auto r = simulate_circuit(kParams, 3, dag);
  EXPECT_EQ(r.gates, 6);
  EXPECT_EQ(r.total_bootstraps, 6);
  EXPECT_EQ(r.critical_path, 5); // g0(1) + MUX g2(2) + g4(1) + g5(1)
  EXPECT_GT(r.time_ms, 0.0);
  EXPECT_GT(r.bootstraps_per_s, 0.0);
  EXPECT_GT(r.effective_parallelism, 1.0);
  EXPECT_GE(r.time_ms, r.gate_latency_ms);
}

TEST(ChipSim, MultiChipShardingBeatsOneChipWhenHbmBound) {
  // m=3 is the paper's memory-bound regime: one chip's HBM channel throttles
  // the wide multiplier, so sharding across two chips (two HBM channels, two
  // pipeline banks) must strictly beat it even though the shards now pay for
  // cross-chip wire transfers.
  const GateDag dag = array_multiplier_netlist(8);
  const auto r1 = simulate_circuit_multichip(kParams, 3, dag, 1);
  const auto r2 = simulate_circuit_multichip(kParams, 3, dag, 2);
  const auto r4 = simulate_circuit_multichip(kParams, 3, dag, 4);
  EXPECT_LT(r2.time_ms, r1.time_ms);
  EXPECT_LT(r4.time_ms, r2.time_ms);
  EXPECT_GT(r2.cut_wires, 0);
  EXPECT_GT(r2.transfers, 0);
  EXPECT_GT(r2.transfer_busy_ms, 0.0);
  // The partition stays load-balanced: no chip hoards the bootstraps.
  ASSERT_EQ(r2.chip_bootstraps.size(), 2u);
  const int64_t total = r2.chip_bootstraps[0] + r2.chip_bootstraps[1];
  EXPECT_EQ(total, dag.total_bootstraps());
  EXPECT_GT(r2.chip_bootstraps[0] * 3, total); // each side holds > 1/3
  EXPECT_GT(r2.chip_bootstraps[1] * 3, total);
  // One chip reduces exactly to the single-chip scheduler.
  const auto legacy = simulate_circuit(kParams, 3, dag);
  EXPECT_DOUBLE_EQ(r1.time_ms, legacy.time_ms);
  EXPECT_EQ(r1.transfers, 0);
  // Round-2 A/B: the reported schedule is never slower than the PR-4
  // greedy-KL baseline it was measured against.
  for (const auto* r : {&r2, &r4}) {
    EXPECT_LE(r->time_ms, r->time_greedy_ms * (1 + 1e-12));
    EXPECT_GE(r->refine_gain, 0.0);
    EXPECT_TRUE(r->partition_source == "greedy-kl" ||
                r->partition_source == "latency-aware")
        << r->partition_source;
  }
  expect_golden(r2, {41.124995499999997, 42.018717499999994, 40, 120,
                     {184, 160}});
  expect_golden(r4, {25.362333, 30.6937365, 74, 220, {47, 110, 101, 86}});
}

TEST(ChipSim, MultiChipSchedulesMatchGoldenValues) {
  // The cases MultiChipShardingBeatsOneChipWhenHbmBound does not pin.
  struct Case {
    const char* circuit;
    int m, chips;
    Golden golden;
  };
  const Case cases[] = {
      {"mul8", 1, 2, {23.850724499999998, 24.2018065, 41, 116, {196, 148}}},
      {"mul8", 1, 4,
       {18.777062000000001, 22.742448500000002, 75, 222, {60, 107, 92, 85}}},
      {"add8", 1, 2, {9.3081324999999993, 9.3942654999999995, 3, 3, {6, 34}}},
      {"add8", 1, 4,
       {9.3013155000000012, 9.3638344999999994, 5, 5, {2, 5, 5, 28}}},
      {"add8", 3, 2, {5.0853994999999994, 5.7941834999999999, 2, 2, {12, 28}}},
      {"add8", 3, 4,
       {4.0300444999999998, 5.0854784999999998, 8, 8, {5, 4, 9, 22}}},
  };
  const GateDag mul8 = array_multiplier_netlist(8);
  const GateDag add8 = ripple_adder_netlist(8);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.circuit) + " m=" + std::to_string(c.m) +
                 " chips=" + std::to_string(c.chips));
    const GateDag& dag = std::string(c.circuit) == "mul8" ? mul8 : add8;
    expect_golden(simulate_circuit_multichip(kParams, c.m, dag, c.chips),
                  c.golden);
  }

  // A hybrid batch plan: two replica groups of two chips, whose replicated
  // batch DAG backfills mid-timeline.
  const auto p = simulate_batch_policy(kParams, 3, add8, 2, 4);
  EXPECT_EQ(p.policy_label, "hybrid");
  EXPECT_EQ(p.replica_groups, 2);
  EXPECT_DOUBLE_EQ(p.time_ms, 5.085439);
  EXPECT_EQ(p.transfers, 4);
  EXPECT_EQ(p.cut_wires, 4);
  ASSERT_EQ(p.considered.size(), 3u);
  EXPECT_DOUBLE_EQ(p.considered[0].time_ms, 7.2117120000000003); // replicate
  EXPECT_DOUBLE_EQ(p.considered[1].time_ms, 5.085439);           // hybrid
  EXPECT_DOUBLE_EQ(p.considered[2].time_ms, 5.7942230000000006); // shard
}

TEST(ChipSim, CompiledCircuitsPinBothPartitionSources) {
  // Recorded circuits through exec/sim_bridge.h, one for each outcome of the
  // partitioner's A/B against its greedy-KL baseline.
  exec::CircuitBuilder add;
  {
    exec::SymWordCircuits wc(add);
    const exec::SymWord x = add.input_word(8), y = add.input_word(8);
    add.mark_output(wc.add(x, y, nullptr, /*with_carry_out=*/true));
    add.mark_output(wc.greater_than(x, y));
  }
  const GateDag addcmp = exec::to_gate_dag(
      add.compile(exec::OptimizeOptions::bit_preserving()).graph);
  ASSERT_EQ(addcmp.gates.size(), 80u);
  ASSERT_EQ(addcmp.total_bootstraps(), 72);
  // The refined partition alone takes 13,158,956 cycles, the baseline
  // 13,143,472: the baseline is kept.
  expect_golden(simulate_circuit_multichip(kParams, 3, addcmp, 2),
                {6.571736, 6.571736, 1, 1, {35, 37}, "greedy-kl"});

  // The benchmark workload (perfbench sim_mul8cmp_4chip).
  exec::CircuitBuilder mul;
  {
    exec::SymWordCircuits wc(mul);
    const exec::SymWord x = mul.input_word(8), y = mul.input_word(8);
    mul.mark_output(wc.multiply(x, y));
    mul.mark_output(wc.greater_than(x, y));
    mul.mark_output(wc.equal(x, y));
  }
  const GateDag mulcmp = exec::to_gate_dag(mul.compile().graph);
  ASSERT_EQ(mulcmp.gates.size(), 103u);
  ASSERT_EQ(mulcmp.total_bootstraps(), 96);
  expect_golden(simulate_circuit_multichip(kParams, 3, mulcmp, 4),
                {5.917225, 7.149855, 25, 26, {14, 16, 33, 33}});
}

TEST(ChipSim, MultiChipRejectsNonPositiveChipCount) {
  const GateDag dag = ripple_adder_netlist(8);
  EXPECT_THROW(simulate_circuit_multichip(kParams, 3, dag, 0),
               std::invalid_argument);
  EXPECT_THROW(simulate_circuit_multichip(kParams, 3, dag, -1),
               std::invalid_argument);
}

TEST(ChipSim, BatchPolicyReplicatesWhenBatchCoversChips) {
  // batch == chips: the policy must pick pure replication (one whole circuit
  // per chip, zero link traffic), and -- with identical chips -- the whole
  // batch finishes in exactly one circuit's single-chip makespan.
  const GateDag dag = ripple_adder_netlist(8);

  const auto r4 = simulate_batch_policy(kParams, 3, dag, 4, 4);
  EXPECT_EQ(r4.policy, BatchPolicy::kReplicate);
  EXPECT_EQ(r4.policy_label, "replicate");
  EXPECT_EQ(r4.replica_groups, 4);
  EXPECT_EQ(r4.group_size, 1);
  EXPECT_EQ(r4.transfers, 0);
  EXPECT_EQ(r4.cut_wires, 0);
  EXPECT_EQ(r4.total_bootstraps, 4 * dag.total_bootstraps());
  const auto single = simulate_circuit(kParams, 3, dag);
  EXPECT_NEAR(r4.time_ms, single.time_ms, single.time_ms * 1e-12);
  // Throughput scales near-linearly against the same batch jammed through
  // one chip (the HBM-bound m=3 regime serializes it there).
  const auto r1 = simulate_batch_policy(kParams, 3, dag, 4, 1);
  EXPECT_EQ(r1.policy, BatchPolicy::kReplicate); // 1 chip: trivially so
  EXPECT_GT(r4.circuits_per_s, 3.0 * r1.circuits_per_s);
  // Every variant priced the same work.
  ASSERT_FALSE(r4.considered.empty());
  for (const auto& v : r4.considered) {
    EXPECT_GE(v.time_ms, r4.time_ms * (1 - 1e-12)) << v.policy_label;
  }
}

TEST(ChipSim, BatchPolicyShardsSingletons) {
  // batch == 1 on several chips: latency is the only objective, and only
  // sharding shortens it, so the policy must not fall back to replication
  // (which would idle every chip but one).
  const GateDag dag = array_multiplier_netlist(6);

  const auto r = simulate_batch_policy(kParams, 3, dag, 1, 2);
  EXPECT_EQ(r.policy, BatchPolicy::kShard);
  EXPECT_EQ(r.replica_groups, 1);
  EXPECT_EQ(r.group_size, 2);
  EXPECT_GT(r.transfers, 0);
  // Sharding won on merit: the single-chip (replicate) variant was priced
  // and lost.
  ASSERT_EQ(r.considered.size(), 2u);
  for (const auto& v : r.considered) {
    if (v.policy_label == "replicate") {
      EXPECT_GT(v.time_ms, r.time_ms);
    }
  }
}

TEST(ChipSim, EmptyCircuit) {
  const auto r = simulate_circuit(kParams, 2, GateDag{});
  EXPECT_EQ(r.gates, 0);
  EXPECT_EQ(r.time_ms, 0.0);
}

TEST(ChipSim, MorePipelinesHelpWideCircuits) {
  GateDag flat;
  flat.gates.resize(64);
  hw::MatchaConfig big;
  big.pipelines = 16;
  big.hbm_gbps = 2560.0; // keep HBM out of the way
  hw::MatchaConfig base;
  base.hbm_gbps = 2560.0;
  const auto r8 = simulate_circuit(kParams, 1, flat, base);
  const auto r16 = simulate_circuit(kParams, 1, flat, big);
  EXPECT_LT(r16.time_ms, r8.time_ms * 0.7);
}

} // namespace
} // namespace matcha::sim
