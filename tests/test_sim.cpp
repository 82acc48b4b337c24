#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/cycle_sim.h"
#include "sim/gate_dag.h"
#include "sim/matcha_sim.h"

namespace matcha::sim {
namespace {

const TfheParams kParams = TfheParams::security110();

TEST(Dfg, NodeCountsPerKind) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 2;
  const Dfg g = build_bootstrap_dfg(p);
  std::map<OpKind, int> counts;
  for (const auto& n : g.nodes) counts[n.kind]++;
  EXPECT_EQ(counts[OpKind::kPrologue], 1);
  EXPECT_EQ(counts[OpKind::kHbmLoad], p.num_groups());
  EXPECT_EQ(counts[OpKind::kBundle], p.num_groups());
  EXPECT_EQ(counts[OpKind::kExternalProd], p.num_groups());
  EXPECT_EQ(counts[OpKind::kExtract], 1);
  EXPECT_EQ(counts[OpKind::kKeySwitch], 1);
  EXPECT_GT(counts[OpKind::kKsLoad], 0);
}

TEST(Dfg, TopologicalAndDepValid) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 3;
  const Dfg g = build_bootstrap_dfg(p);
  for (const auto& n : g.nodes) {
    for (int d : n.deps) {
      EXPECT_LT(d, n.id);
      EXPECT_GE(d, 0);
    }
  }
}

TEST(Schedule, RespectsDependenciesAndResources) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 2;
  const Dfg g = build_bootstrap_dfg(p);
  const ScheduleResult s = schedule(g);
  // Dependencies respected.
  for (const auto& n : g.nodes) {
    for (int d : n.deps) EXPECT_GE(s.start[n.id], s.end[d]);
  }
  // No overlap on any single resource.
  std::map<Resource, std::vector<std::pair<int64_t, int64_t>>> by_res;
  for (const auto& n : g.nodes) {
    by_res[n.resource].push_back({s.start[n.id], s.end[n.id]});
  }
  for (auto& [res, spans] : by_res) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << resource_name(res) << " overlap at " << i;
    }
  }
}

TEST(Schedule, BusyNeverExceedsMakespan) {
  SimParams p;
  p.tfhe = kParams;
  for (int m = 1; m <= 4; ++m) {
    p.unroll_m = m;
    const ScheduleResult s = schedule(build_bootstrap_dfg(p));
    for (int r = 0; r < static_cast<int>(Resource::kCount); ++r) {
      EXPECT_LE(s.busy[r], s.makespan);
    }
  }
}

TEST(Schedule, BundlesPipelineAheadOfEps) {
  // Fig. 6(b): while EP g runs, bundle g+1 must already be building.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 3;
  const Dfg g = build_bootstrap_dfg(p);
  const ScheduleResult s = schedule(g);
  std::vector<int64_t> bundle_start(p.num_groups()), ep_start(p.num_groups()),
      ep_end(p.num_groups());
  for (const auto& n : g.nodes) {
    if (n.kind == OpKind::kBundle) bundle_start[n.group] = s.start[n.id];
    if (n.kind == OpKind::kExternalProd) {
      ep_start[n.group] = s.start[n.id];
      ep_end[n.group] = s.end[n.id];
    }
  }
  int overlapped = 0;
  for (int grp = 1; grp < p.num_groups(); ++grp) {
    if (bundle_start[grp] < ep_end[grp - 1]) ++overlapped;
  }
  EXPECT_GT(overlapped, p.num_groups() / 2);
}

TEST(Sim, LatencyShapeMatchesPaper) {
  // Fig. 9 MATCHA series: improves to m=3, degrades at m=4 (only 8 TGSW
  // clusters; the bundle construction becomes the bottleneck).
  const auto r1 = simulate_gate(kParams, 1);
  const auto r2 = simulate_gate(kParams, 2);
  const auto r3 = simulate_gate(kParams, 3);
  const auto r4 = simulate_gate(kParams, 4);
  EXPECT_LT(r2.latency_ms, r1.latency_ms);
  EXPECT_LT(r3.latency_ms, r2.latency_ms);
  EXPECT_GT(r4.latency_ms, r3.latency_ms);
  // Absolute anchors (loose): sub-millisecond everywhere, ~0.15-0.25 at m=3.
  EXPECT_LT(r3.latency_ms, 0.25);
  EXPECT_GT(r3.latency_ms, 0.10);
  EXPECT_LT(r1.latency_ms, 1.0);
}

TEST(Sim, PipelineBalancedAtM3) {
  // The paper: "the workloads of the two steps ... approximately balanced by
  // adjusting m" -- at m=3 both units are busy most of the time.
  const auto r = simulate_gate(kParams, 3);
  EXPECT_GT(r.util_ep, 0.7);
  EXPECT_GT(r.util_tgsw, 0.5);
  // At m=1 the TGSW cluster idles.
  const auto r1 = simulate_gate(kParams, 1);
  EXPECT_LT(r1.util_tgsw, 0.3);
  EXPECT_GT(r1.util_ep, 0.9);
}

TEST(Sim, HbmTrafficGrowsExponentiallyWithM) {
  double prev = 0;
  for (int m = 1; m <= 5; ++m) {
    const auto r = simulate_gate(kParams, m);
    EXPECT_GT(r.hbm_mb, prev);
    prev = r.hbm_mb;
  }
  const auto r1 = simulate_gate(kParams, 1);
  // BK (spectral, 48KB per TGSW at N=1024, l=3) + KS key.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  EXPECT_NEAR(r1.hbm_mb,
              (p.bootstrap_bk_bytes() + p.ks_bytes()) / 1e6, 0.01);
  EXPECT_EQ(p.tgsw_bytes(), 6 * 2 * 1024 * 4);
}

TEST(Sim, ThroughputCappedByHbm) {
  const auto r4 = simulate_gate(kParams, 4);
  const double hbm_cap = 640e9 / (r4.hbm_mb * 1e6);
  EXPECT_LE(r4.gates_per_s, hbm_cap * 1.001);
  // Doubling bandwidth must raise m=4 throughput.
  hw::MatchaConfig fat;
  fat.hbm_gbps = 1280.0;
  const auto rfat = simulate_gate(kParams, 4, fat);
  EXPECT_GT(rfat.gates_per_s, r4.gates_per_s * 1.5);
}

TEST(Sim, EnergyAndPowerSane) {
  for (int m = 1; m <= 4; ++m) {
    const auto r = simulate_gate(kParams, m);
    EXPECT_GT(r.energy_mj, 0.0);
    EXPECT_GT(r.avg_power_w, 0.5);
    // A single pipeline can't exceed its cluster+EP+share-of-uncore budget.
    EXPECT_LT(r.avg_power_w, 8.0);
    // Component breakdown sums to the total.
    EXPECT_NEAR(r.energy_tgsw_mj + r.energy_ep_mj + r.energy_poly_mj +
                    r.energy_uncore_mj,
                r.energy_mj, r.energy_mj * 1e-9);
  }
}

TEST(Sim, EnergyShiftsFromEpToTgswWithM) {
  // BKU's energy story: external products shrink ~1/m while bundle terms
  // grow (2^m - 1)/m, so the TGSW share must rise monotonically.
  double prev_share = 0.0;
  for (int m = 1; m <= 4; ++m) {
    const auto r = simulate_gate(kParams, m);
    const double share = r.energy_tgsw_mj / r.energy_mj;
    EXPECT_GT(share, prev_share) << m;
    prev_share = share;
  }
  // And the EP cores dominate a non-unrolled bootstrap.
  const auto r1 = simulate_gate(kParams, 1);
  EXPECT_GT(r1.energy_ep_mj, 3.0 * r1.energy_tgsw_mj);
}

TEST(Sim, MoreEpMacSlicesShortenM1Latency) {
  hw::MatchaConfig wide;
  wide.ep_mults = 8;
  const auto base = simulate_gate(kParams, 1);
  const auto fast = simulate_gate(kParams, 1, wide);
  EXPECT_LT(fast.latency_ms, base.latency_ms * 0.75);
}

/// The reference earliest-fit backfill: walks the sorted, coalesced span list
/// one span at a time. BackfillTimeline must return the same completion for
/// every claim sequence; `spans` is public so the generator can aim claims at
/// exact gaps.
struct LinearBackfill {
  std::vector<std::pair<int64_t, int64_t>> spans;
  int64_t busy = 0;

  int64_t claim(int64_t ready, int64_t cycles) {
    busy += cycles;
    if (cycles == 0) return ready;
    size_t i = 0;
    while (i < spans.size() && spans[i].first <= ready) ++i;
    if (i > 0 && spans[i - 1].second > ready) --i;
    int64_t start = ready;
    while (i < spans.size() && spans[i].first < start + cycles) {
      if (spans[i].second > start) start = spans[i].second;
      ++i;
    }
    const bool join_prev = i > 0 && spans[i - 1].second == start;
    const bool join_next = i < spans.size() && spans[i].first == start + cycles;
    if (join_prev && join_next) {
      spans[i - 1].second = spans[i].second;
      spans.erase(spans.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (join_prev) {
      spans[i - 1].second = start + cycles;
    } else if (join_next) {
      spans[i].first = start;
    } else {
      spans.insert(spans.begin() + static_cast<std::ptrdiff_t>(i),
                   {start, start + cycles});
    }
    return start + cycles;
  }
};

TEST(BackfillTimeline, MatchesLinearWalkOracle) {
  // Random claim sequences over timelines hundreds of spans (many index
  // blocks) long, mixing tail appends with claims aimed at the interior:
  // exact gap fills (coalesce both sides), left- and right-flush fills,
  // claims starting inside a span, claims ahead of the first span, 0-cycle
  // claims, and random backfills that skip many too-small gaps.
  {
    // Directed: a split moves the one wide gap across an index-block edge,
    // and the next claim fits nowhere else.
    BackfillTimeline fast;
    LinearBackfill ref;
    const auto claim = [&](int64_t ready, int64_t cycles) {
      EXPECT_EQ(fast.claim(ready, cycles), ref.claim(ready, cycles))
          << "ready " << ready << " cycles " << cycles;
    };
    int64_t tail = 0;
    for (int k = 0; k < 52; ++k) { // gap 0 = 10, gap 31 = 100, others 1
      const int64_t gap = k == 0 ? 0 : k == 1 ? 10 : k == 32 ? 100 : 1;
      claim(tail + gap, 5);
      tail += gap + 5;
    }
    claim(7, 2);   // splits gap 0: the wide gap becomes gap 32
    claim(0, 100); // fits only in it
  }
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    BackfillTimeline fast;
    LinearBackfill ref;
    const auto below = [&](int64_t bound) {
      return static_cast<int64_t>(rng.uniform_below(
          static_cast<uint32_t>(std::max<int64_t>(1, bound))));
    };
    int joins_both = 0, deep = 0;
    for (int step = 0; step < 6000; ++step) {
      const auto& sp = ref.spans;
      const int64_t tail = sp.empty() ? 0 : sp.back().second;
      int64_t ready = 0, cycles = 0;
      const int kind = static_cast<int>(rng.uniform_below(10));
      if (sp.size() < 2 || kind < 3) { // grow at the tail, leaving a gap
        ready = tail + below(60);
        cycles = 1 + below(40);
      } else if (kind == 3) { // 0-cycle claim anywhere
        ready = below(tail + 10);
      } else if (kind == 4) { // random backfill, often deep inside
        ready = below(tail);
        cycles = 1 + below(80);
        deep += ready < sp[sp.size() / 2].first;
      } else if (kind == 9) { // ahead of the first span
        ready = below(sp.front().first + 1);
        cycles = 1 + below(sp.front().first - ready + 2);
      } else { // aim at gap k between spans k and k+1
        const size_t k = static_cast<size_t>(
            below(static_cast<int64_t>(sp.size()) - 1));
        const int64_t lo = sp[k].second, len = sp[k + 1].first - lo;
        if (kind == 5) { // exact fill: coalesces both sides
          ready = lo;
          cycles = len;
          ++joins_both;
        } else if (kind == 6) { // flush left: joins span k
          ready = lo;
          cycles = std::max<int64_t>(1, len - 1 - below(len));
        } else if (kind == 7) { // flush right: joins span k + 1
          cycles = 1 + below(len);
          ready = lo + len - cycles;
        } else { // start inside span k
          ready = sp[k].first + below(sp[k].second - sp[k].first);
          cycles = 1 + below(len + 2);
        }
      }
      const int64_t want = ref.claim(ready, cycles);
      ASSERT_EQ(fast.claim(ready, cycles), want)
          << "seed " << seed << " step " << step << " ready " << ready
          << " cycles " << cycles;
      ASSERT_EQ(fast.busy(), ref.busy);
    }
    EXPECT_GT(ref.spans.size(), 200u) << "timeline should span many blocks";
    EXPECT_GT(joins_both, 100);
    EXPECT_GT(deep, 100);
  }
}

TEST(BatchSchedule, SingleGateMatchesScalarScheduler) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 3;
  const Dfg g = build_bootstrap_dfg(p);
  const ScheduleResult single = schedule(g);
  const GateDagScheduleResult b = schedule_batch(g, 1, p.hw.pipelines);
  EXPECT_EQ(b.makespan, single.makespan);
  ASSERT_EQ(b.gate_end.size(), 1u);
  EXPECT_EQ(b.gate_end[0], b.makespan);
}

TEST(BatchSchedule, EmptyBatch) {
  SimParams p;
  p.tfhe = kParams;
  const Dfg g = build_bootstrap_dfg(p);
  const GateDagScheduleResult b = schedule_batch(g, 0, p.hw.pipelines);
  EXPECT_EQ(b.makespan, 0);
  EXPECT_TRUE(b.gate_end.empty());
}

TEST(BatchSchedule, ParallelPipelinesBeatSerialExecution) {
  // A batch the size of the chip's pipeline count must finish much faster
  // than running the gates back to back, and never faster than
  // perfectly-linear scaling allows. m=1 keeps the bootstrapping key small
  // enough that the batch is compute-bound, not HBM-bound.
  const int pipelines = hw::MatchaConfig{}.pipelines;
  const auto b = simulate_batch(kParams, 1, pipelines);
  EXPECT_GT(b.speedup_vs_serial, 2.0);
  EXPECT_LE(b.speedup_vs_serial, pipelines + 1e-9);
  EXPECT_GE(b.makespan_cycles, b.single_gate_cycles);
}

TEST(BatchSchedule, MakespanMonotonicInBatchSize) {
  int64_t prev = 0;
  for (int n : {1, 4, 8, 16, 32}) {
    const auto b = simulate_batch(kParams, 3, n);
    EXPECT_GE(b.makespan_cycles, prev) << n;
    prev = b.makespan_cycles;
  }
}

TEST(BatchSchedule, OccupancyRisesWithBatchSize) {
  // One gate leaves most pipelines idle; a full batch keeps them busy.
  const auto one = simulate_batch(kParams, 1, 1);
  const auto full = simulate_batch(kParams, 1, 4 * hw::MatchaConfig{}.pipelines);
  EXPECT_LT(one.pipeline_occupancy, full.pipeline_occupancy);
  EXPECT_GT(full.pipeline_occupancy, 0.3);
  EXPECT_LE(full.pipeline_occupancy, 1.0);
  EXPECT_LE(full.hbm_utilization, 1.0);
}

TEST(BatchSchedule, HbmContentionCapsScaling) {
  // Starving the chip of bandwidth must hurt a full batch more than a
  // single gate: the shared key stream becomes the bottleneck.
  hw::MatchaConfig thin;
  thin.hbm_gbps = 64.0; // 10x less than the paper's HBM2
  const auto fat = simulate_batch(kParams, 3, 16);
  const auto starved = simulate_batch(kParams, 3, 16, thin);
  EXPECT_LT(starved.speedup_vs_serial, fat.speedup_vs_serial);
  EXPECT_GT(starved.hbm_utilization, 0.9);
}

TEST(GateDagSchedule, ChainSerializesExactly) {
  // A dependency chain can never overlap: each gate replays the bootstrap
  // DFG starting where its predecessor ended.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  const int64_t single = schedule(dfg).makespan;
  GateDag chain;
  for (int i = 0; i < 4; ++i) {
    GateDagNode n;
    if (i > 0) n.deps.push_back(i - 1);
    chain.gates.push_back(n);
  }
  const auto r = schedule_gate_dag(dfg, chain, p.hw.pipelines);
  EXPECT_EQ(r.makespan, 4 * single);
  EXPECT_EQ(chain.critical_path_bootstraps(), 4);
}

TEST(GateDagSchedule, DiamondBeatsChain) {
  // a -> {b, c} -> d: the two middle gates are independent and must overlap
  // across pipelines, beating the equivalent 4-gate chain.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  GateDag diamond;
  diamond.gates.resize(4);
  diamond.gates[1].deps = {0};
  diamond.gates[2].deps = {0};
  diamond.gates[3].deps = {1, 2};
  GateDag chain;
  chain.gates.resize(4);
  for (int i = 1; i < 4; ++i) chain.gates[i].deps = {i - 1};
  const auto rd = schedule_gate_dag(dfg, diamond, p.hw.pipelines);
  const auto rc = schedule_gate_dag(dfg, chain, p.hw.pipelines);
  EXPECT_LT(rd.makespan, rc.makespan);
  EXPECT_EQ(diamond.critical_path_bootstraps(), 3);
}

TEST(GateDagSchedule, LinearGatesAreFree) {
  // NOT gates (bootstraps = 0) order results but consume no pipeline time.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  const int64_t single = schedule(dfg).makespan;
  GateDag dag;
  dag.gates.resize(3);
  dag.gates[0].bootstraps = 0; // NOT of an input
  dag.gates[1].bootstraps = 0;
  dag.gates[1].deps = {0};
  dag.gates[2].deps = {1}; // one real bootstrap at the end
  const auto r = schedule_gate_dag(dfg, dag, p.hw.pipelines);
  EXPECT_EQ(r.makespan, single);
  EXPECT_EQ(dag.total_bootstraps(), 1);
}

TEST(GateDagSchedule, IndependentGatesFillPipelines) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  const int64_t single = schedule(dfg).makespan;
  GateDag wide;
  wide.gates.resize(p.hw.pipelines);
  const auto r = schedule_gate_dag(dfg, wide, p.hw.pipelines);
  // Much faster than serial, never faster than perfectly linear.
  EXPECT_LT(r.makespan, p.hw.pipelines * single / 2);
  EXPECT_GE(r.makespan, single);
  EXPECT_LE(r.hbm_utilization, 1.0);
  EXPECT_LE(r.pipeline_occupancy, 1.0);
}

TEST(GateDagSchedule, RecordingOrderIrrelevant) {
  // Two interleavings of the same two independent chains: dispatch is by
  // data readiness, so the makespan cannot depend on emission order.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 2;
  const Dfg dfg = build_bootstrap_dfg(p);
  GateDag grouped; // A1 A2 B1 B2
  grouped.gates.resize(4);
  grouped.gates[1].deps = {0};
  grouped.gates[3].deps = {2};
  GateDag interleaved; // A1 B1 A2 B2
  interleaved.gates.resize(4);
  interleaved.gates[2].deps = {0};
  interleaved.gates[3].deps = {1};
  const auto rg = schedule_gate_dag(dfg, grouped, p.hw.pipelines);
  const auto ri = schedule_gate_dag(dfg, interleaved, p.hw.pipelines);
  EXPECT_EQ(rg.makespan, ri.makespan);
}

TEST(GateDagSchedule, MuxCostsTwoBootstraps) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  const int64_t single = schedule(dfg).makespan;
  GateDag dag;
  dag.gates.resize(1);
  dag.gates[0].bootstraps = 2;
  const auto r = schedule_gate_dag(dfg, dag, p.hw.pipelines);
  EXPECT_EQ(r.makespan, 2 * single);
}

TEST(GateDagSchedule, RejectsDepsOutsideTopologicalRange) {
  // Deps and pins must index earlier gates; anything else is rejected up
  // front in every build type instead of indexing past the per-gate arrays.
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  const ChipResources chip{p.hw.pipelines, &dfg};
  const auto bad_dep = [](int dep) {
    GateDag dag;
    dag.gates.resize(3);
    dag.gates[1].deps = {dep};
    return dag;
  };
  GateDag bad_pin = bad_dep(0);
  bad_pin.gates[1].pin = 2;
  // Negative, out of range, forward, self, and a forward pin.
  for (const GateDag& dag :
       {bad_dep(-1), bad_dep(7), bad_dep(2), bad_dep(1), bad_pin}) {
    GateDagPartition two;
    two.num_chips = 2;
    two.chip_of = {0, 1, 1};
    EXPECT_THROW(schedule_gate_dag(dfg, dag, p.hw.pipelines),
                 std::invalid_argument);
    EXPECT_THROW(schedule_gate_dag_multichip(dag, two, chip, 0),
                 std::invalid_argument);
    EXPECT_THROW(partition_gate_dag(dag, 2), std::invalid_argument);
    EXPECT_THROW(partition_gate_dag(dag, 2, chip, 0), std::invalid_argument);
    EXPECT_THROW((void)dag.critical_path_bootstraps(), std::invalid_argument);
    EXPECT_THROW(replicate_gate_dag(dag, 2), std::invalid_argument);
  }
  // The same DAG with an in-range dep and pin is fine.
  GateDag ok = bad_dep(0);
  ok.gates[1].pin = 0;
  EXPECT_NO_THROW(partition_gate_dag(ok, 2, chip, 0));
  EXPECT_EQ(ok.critical_path_bootstraps(), 2);
  EXPECT_GT(schedule_gate_dag(dfg, ok, p.hw.pipelines).makespan, 0);
}

TEST(GateDagSchedule, RejectsChipIdsOutsideThePartition) {
  SimParams p;
  p.tfhe = kParams;
  p.unroll_m = 1;
  const Dfg dfg = build_bootstrap_dfg(p);
  GateDag dag;
  dag.gates.resize(2);
  for (const int bad : {-1, 2}) {
    GateDagPartition part;
    part.num_chips = 2;
    part.chip_of = {0, bad};
    EXPECT_THROW(
        schedule_gate_dag_multichip(dag, part, {p.hw.pipelines, &dfg}, 0),
        std::invalid_argument);
    EXPECT_THROW(summarize_partition(dag, 2, part.chip_of),
                 std::invalid_argument);
  }
}

TEST(Sim, ServiceTimesScaleWithRingSize) {
  SimParams p;
  p.tfhe = kParams;
  const int t1024 = p.transform_cycles();
  p.tfhe.ring.n_ring = 2048;
  EXPECT_GT(p.transform_cycles(), t1024);
}

} // namespace
} // namespace matcha::sim
