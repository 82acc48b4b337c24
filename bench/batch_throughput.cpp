// Batched gate execution: software speedup of the exec/ subsystem
// (batch size x thread count), the DAG optimizer + wavefront profile of one
// large recorded circuit, and the simulated MATCHA chip scheduling the same
// workloads across its pipelines with HBM contention.
//
// Emits BENCH_batch_throughput.json next to the binary's working directory
// so the perf trajectory accumulates machine-readable data points.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "exec/sim_bridge.h"
#include "fft/simd_fft.h"
#include "sim/chip_sim.h"
#include "sim/matcha_sim.h"

namespace {

using namespace matcha;
using bench::JsonWriter;
using circuits::EncWord;
using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::CompiledGraph;
using exec::SymWord;
using exec::SymWordCircuits;
using exec::Wire;

constexpr int kWidth = 8;

/// Independent adder+comparator blocks (~70 two-input gates each at 8 bits).
struct Workload {
  CircuitBuilder builder;
  std::vector<SymWord> sums; ///< one per block
  std::vector<Wire> gts;

  explicit Workload(int blocks) {
    SymWordCircuits wc(builder);
    for (int i = 0; i < blocks; ++i) {
      const SymWord x = builder.input_word(kWidth);
      const SymWord y = builder.input_word(kWidth);
      sums.push_back(wc.add(x, y, nullptr, /*with_carry_out=*/true));
      gts.push_back(wc.greater_than(x, y));
      builder.mark_output(sums.back());
      builder.mark_output(gts.back());
    }
  }
};

/// One deep circuit: an 8-bit shift-and-add multiplier plus both
/// comparators -- wide wavefronts (partial products) feeding a long carry
/// chain, with CSE hits (shared XNOR terms) and const-folding wins (zero
/// rows) for the optimizer.
struct BigCircuit {
  CircuitBuilder builder;
  SymWord x, y, prod;
  Wire gt, eq;

  BigCircuit() {
    x = builder.input_word(kWidth);
    y = builder.input_word(kWidth);
    SymWordCircuits wc(builder);
    prod = wc.multiply(x, y);
    gt = wc.greater_than(x, y);
    eq = wc.equal(x, y);
    builder.mark_output(prod);
    builder.mark_output(gt);
    builder.mark_output(eq);
  }
};

/// The full adder + comparator + multiplier bundle the fusion pass is
/// measured on: carry/sum chains (fusible MAJ3/XOR3 cones) plus comparator
/// scans (mostly unfusible) over shared inputs.
struct Bundle {
  CircuitBuilder builder;

  Bundle() {
    SymWordCircuits wc(builder);
    const SymWord x = builder.input_word(kWidth);
    const SymWord y = builder.input_word(kWidth);
    builder.mark_output(wc.add(x, y, nullptr, /*with_carry_out=*/true));
    builder.mark_output(wc.multiply(x, y));
    builder.mark_output(wc.greater_than(x, y));
    builder.mark_output(wc.equal(x, y));
  }
};

/// 16-to-1 word multiplexer over 4-bit data: 4 select bits, each output bit
/// a balanced tree of 15 MUX nodes (30 bootstraps, depth 4). The four roots
/// share one select tree, which is what MUX-tree flattening amortizes its
/// minterm LUTs across.
struct MuxTree16 {
  CircuitBuilder builder;

  MuxTree16() {
    constexpr int kDataW = 4;
    std::vector<Wire> sel;
    for (int i = 0; i < 4; ++i) sel.push_back(builder.input());
    std::vector<std::vector<Wire>> leaves(16);
    for (auto& leaf : leaves) {
      for (int b = 0; b < kDataW; ++b) leaf.push_back(builder.input());
    }
    for (int b = 0; b < kDataW; ++b) {
      std::vector<Wire> layer;
      for (const auto& leaf : leaves) layer.push_back(leaf[static_cast<size_t>(b)]);
      for (int level = 0; level < 4; ++level) {
        std::vector<Wire> next;
        for (size_t i = 0; i < layer.size(); i += 2) {
          next.push_back(builder.gate_mux(sel[static_cast<size_t>(level)],
                                          layer[i + 1], layer[i]));
        }
        layer = std::move(next);
      }
      builder.mark_output(layer.front());
    }
  }
};

/// Parity reduction of 16 bits recorded as a LEFT-DEEP chain: 15 XOR gates,
/// dependence depth 15. Chain rebalancing turns it into a log-depth tree
/// whose 2-3 leaf clusters cone fusion then packs into XOR3 LUTs.
struct XorChain16 {
  CircuitBuilder builder;

  XorChain16() {
    Wire acc = builder.input();
    for (int i = 1; i < 16; ++i) {
      acc = builder.gate_xor(acc, builder.input());
    }
    builder.mark_output(acc);
  }
};

/// Pre-rewrite vs post-rewrite optimizer counts for one recorded circuit, to
/// console + JSON -- the machine-readable record of the bootstrap-count AND
/// critical-path-depth wins. The baseline disables every structural rewrite
/// (fusion, chain rebalancing, MUX flattening, multi-output packing) but
/// keeps fold/CSE/DCE, so it matches the pre-compiler-round-2 pipeline.
void report_fusion(JsonWriter& j, const char* name, CircuitBuilder& builder) {
  exec::OptimizeOptions no_fuse;
  no_fuse.fuse_lut_cones = false;
  no_fuse.rebalance_chains = false;
  no_fuse.flatten_mux_trees = false;
  no_fuse.pack_multi_output = false;
  const CompiledGraph pre = builder.compile(no_fuse);
  const CompiledGraph post = builder.compile();
  int luts = 0;
  for (const auto& n : post.graph.nodes()) {
    luts += n.is_gate() && n.kind == GateKind::kLut;
  }
  const double reduction =
      100.0 * (1.0 - static_cast<double>(post.stats.bootstraps_after) /
                         static_cast<double>(pre.stats.bootstraps_after));
  std::printf("%-16s gates %4d -> %4d, bootstraps %4lld -> %4lld, depth "
              "%2d -> %2d (%d cones, %d absorbed, %d LUTs, %d packed)  "
              "-%.1f%%\n",
              name, pre.stats.gates_after, post.stats.gates_after,
              static_cast<long long>(pre.stats.bootstraps_after),
              static_cast<long long>(post.stats.bootstraps_after),
              pre.stats.depth_after, post.stats.depth_after,
              post.stats.cones_fused, post.stats.fused_away, luts,
              post.stats.luts_packed, reduction);
  j.begin_object();
  j.field("circuit", name);
  j.field("gates_unfused", pre.stats.gates_after);
  j.field("gates_fused", post.stats.gates_after);
  j.field("bootstraps_unfused", pre.stats.bootstraps_after);
  j.field("bootstraps_fused", post.stats.bootstraps_after);
  j.field("depth_unfused", pre.stats.depth_after);
  j.field("depth_fused", post.stats.depth_after);
  j.field("cones_fused", post.stats.cones_fused);
  j.field("gates_absorbed", post.stats.fused_away);
  j.field("lut_nodes", luts);
  j.field("chains_rebalanced", post.stats.chains_rebalanced);
  j.field("mux_trees_flattened", post.stats.mux_trees_flattened);
  j.field("luts_packed", post.stats.luts_packed);
  j.field("extra_outputs", post.stats.extra_outputs);
  j.field("extractions_fused", post.graph.extraction_count());
  j.field("reduction_pct", reduction);
  j.end_object();
}

/// The pre-batching sequential bootstrap, reconstructed as the baseline the
/// fused path is measured against: per sample, every group materializes its
/// 2l x 2 bundle spectra (build_bundle, over per-TGSW spectra of the cloud
/// key) and runs a plain external product -- no zero-a skip, no test-vector
/// spectrum reuse -- then extracts and key switches one sample at a time.
void bootstrap_materialized_seq(
    const SimdFftEngine& eng, const UnrolledBootstrapKey& key,
    const std::vector<std::vector<TGswSpectral<SimdFftEngine>>>& groups,
    const KeySwitchKey& ks, Torus32 mu, const std::vector<LweSample>& xs,
    std::vector<LweSample>& outs, BootstrapWorkspace<SimdFftEngine>& ws) {
  const int n_ring = eng.ring_n();
  TorusPolynomial testv(n_ring);
  for (auto& c : testv.coeffs) c = mu;
  TLweSample acc(n_ring);
  LweSample extracted;
  for (size_t s = 0; s < xs.size(); ++s) {
    const LweSample& x = xs[s];
    const int barb = mod_switch_to_2n(x.b, n_ring);
    multiply_by_xpower(ws.testv_rot, testv, 2 * n_ring - barb);
    acc.a.clear();
    acc.b = ws.testv_rot;
    for (int g = 0; g < key.num_groups(); ++g) {
      group_subset_exponents(x.a.data() + g * key.unroll_m, key.members(g),
                             n_ring, ws.exponents);
      if (!build_bundle(eng, key.gadget, groups[static_cast<size_t>(g)],
                        ws.exponents, ws.bundle)) {
        continue;
      }
      external_product(eng, key.gadget, ws.bundle, acc, ws.ep);
    }
    sample_extract_into(acc, extracted);
    key_switch_into(ks, extracted, outs[s]);
  }
}

} // namespace

int main() {
  Rng rng(20240601);
  const TfheParams params = TfheParams::test_small();
  std::printf("keygen (test_small, m=2)...\n");
  const SecretKeyset sk = SecretKeyset::generate(params, rng);
  const CloudKeyset cloud = make_cloud_keyset(sk, /*unroll_m=*/2, rng);
  // The software gate path runs the SIMD spectral engine (runtime-dispatched
  // kernels; MATCHA_SIMD=off pins the scalar fallback for A/B runs).
  SimdFftEngine eng(params.ring.n_ring);
  std::printf("software engine: simd_fft (%s kernels)\n", eng.level_name());
  const auto dev = load_device_keyset(eng, cloud);
  const auto make_engine = [&] {
    return std::make_unique<SimdFftEngine>(params.ring.n_ring);
  };

  std::FILE* jf = std::fopen("BENCH_batch_throughput.json", "w");
  const bool json_ok = jf != nullptr;
  if (!json_ok) {
    // Unwritable working directory: keep the console sweep, drop the
    // artifact.
    std::fprintf(stderr,
                 "warning: cannot write BENCH_batch_throughput.json\n");
    jf = std::fopen("/dev/null", "w");
    if (jf == nullptr) return 1;
  }
  JsonWriter j(jf);
  j.begin_object();
  j.field("software_engine", "simd_fft");
  j.field("simd_kernels", eng.level_name());
  bench::write_host_header(j);

  std::printf("\n-- software batch execution (exec/BatchExecutor) --\n");
  std::printf("%-8s%-8s%-8s%-8s%12s%12s%10s%8s\n", "blocks", "gates", "levels",
              "threads", "wall_ms", "gates/s", "speedup", "ok");
  j.name("software_batch");
  j.begin_array();
  for (const int blocks : {1, 4, 16}) {
    Workload w(blocks);
    const auto& graph = w.builder.graph();

    // Plaintext inputs + expected outputs.
    std::vector<uint64_t> xs, ys;
    std::vector<LweSample> inputs;
    Rng data_rng(7 + blocks);
    for (int i = 0; i < blocks; ++i) {
      xs.push_back(data_rng.uniform_below(1u << kWidth));
      ys.push_back(data_rng.uniform_below(1u << kWidth));
      for (const uint64_t v : {xs.back(), ys.back()}) {
        const EncWord e = circuits::encrypt_word(sk, v, kWidth, rng);
        inputs.insert(inputs.end(), e.bits.begin(), e.bits.end());
      }
    }

    double t1 = 0;
    for (const int threads : {1, 2, 4, 8}) {
      BatchExecutor<SimdFftEngine> ex(make_engine, dev.bk, *dev.ks,
                                      params.mu(), threads);
      const BatchResult r = ex.run(graph, inputs);
      const auto& st = ex.last_stats();
      if (threads == 1) t1 = st.wall_ms;

      bool ok = true;
      for (int i = 0; i < blocks; ++i) {
        EncWord sum;
        for (const Wire s : w.sums[i].bits) sum.bits.push_back(r.at(s));
        ok &= circuits::decrypt_word(sk, sum) == xs[i] + ys[i];
        ok &= sk.decrypt_bit(r.at(w.gts[i])) == (xs[i] > ys[i] ? 1 : 0);
      }
      std::printf("%-8d%-8lld%-8d%-8d%12.1f%12.0f%10.2f%8s\n", blocks,
                  static_cast<long long>(st.gates), st.levels, threads,
                  st.wall_ms, st.gates * 1e3 / st.wall_ms, t1 / st.wall_ms,
                  ok ? "ok" : "WRONG");
      j.begin_object();
      j.field("blocks", blocks);
      j.field("gates", st.gates);
      j.field("levels", st.levels);
      j.field("threads", threads);
      j.field("wall_ms", st.wall_ms);
      j.field("gates_per_s", st.gates * 1e3 / st.wall_ms);
      j.field("speedup", t1 / st.wall_ms);
      j.field("pool_dispatches", st.pool_dispatches);
      j.field("workers", st.workers);
      j.field("steals", st.steals);
      j.field("sched_efficiency", st.sched_efficiency);
      j.field("ok", ok);
      j.end_object();
    }
  }
  j.end_array();

  std::printf("\n-- batched blind rotation (group-major BSK streaming, m=2) --\n");
  std::printf("%-10s%-18s%14s%10s\n", "kernels", "mode", "us/bootstrap",
              "speedup");
  j.name("blind_rotate");
  j.begin_array();
  {
    constexpr int kSamples = 32;
    std::vector<SimdLevel> tiers{SimdLevel::kScalar};
    if (std::string(eng.level_name()) != "scalar") {
      tiers.push_back(active_simd_level());
    }
    for (const SimdLevel level : tiers) {
      SimdFftEngine teng(params.ring.n_ring, level);
      const auto bk = load_bootstrap_key(teng, cloud.bk);
      std::vector<std::vector<TGswSpectral<SimdFftEngine>>> seq_groups;
      for (const auto& group : cloud.bk.groups) {
        seq_groups.emplace_back();
        for (const TGswSample& raw : group) {
          seq_groups.back().push_back(tgsw_to_spectral(teng, raw));
        }
      }
      BootstrapWorkspace<SimdFftEngine> ws(teng, params.gadget);
      KeySwitchWorkspace ks_ws;
      Rng srng(0xB007);
      std::vector<LweSample> xs;
      std::vector<LweSample> outs(kSamples);
      for (int s = 0; s < kSamples; ++s) xs.push_back(sk.encrypt_bit(s & 1, srng));

      const auto emit = [&](const char* mode, int batch, double us,
                            double baseline_us) {
        std::printf("%-10s%-18s%14.1f%10.2f\n", teng.level_name(), mode,
                    us, baseline_us / us);
        j.begin_object();
        j.field("path", teng.level_name());
        j.field("mode", mode);
        j.field("batch", batch);
        j.field("us_per_sample", us);
        j.field("speedup_vs_seq_pr6", baseline_us / us);
        j.end_object();
      };

      // Mode table. Reps are interleaved round-robin across ALL modes (not
      // best-of-N per mode in sequence): a transient load burst on a shared
      // box then taxes every mode's round equally instead of sinking one
      // mode's whole measurement window, and each mode's minimum comes from
      // whichever round was quiet.
      struct Mode {
        std::string name;
        int batch;
        std::function<void()> run;
        double best_us = 0.0;
      };
      std::vector<Mode> modes;
      modes.push_back({"seq_pr6", 1,
                       [&] {
                         bootstrap_materialized_seq(teng, cloud.bk, seq_groups,
                                                    cloud.ks, params.mu(), xs,
                                                    outs, ws);
                       },
                       0.0});
      // Group-major batches (each flush streams the BSK once per batch);
      // batch1 is the sequential path.
      std::vector<std::vector<const LweSample*>> in_ptrs;
      std::vector<std::vector<LweSample*>> out_ptrs;
      const std::vector<int> batches{1, 2, 4, 8, 16, 32};
      in_ptrs.reserve(batches.size());
      out_ptrs.reserve(batches.size());
      for (const int batch : batches) {
        in_ptrs.emplace_back(static_cast<size_t>(batch));
        out_ptrs.emplace_back(static_cast<size_t>(batch));
        const LweSample** ip = in_ptrs.back().data();
        LweSample** op = out_ptrs.back().data();
        modes.push_back({"batch" + std::to_string(batch), batch,
                         [&, batch, ip, op] {
                           for (int s0 = 0; s0 < kSamples; s0 += batch) {
                             for (int k = 0; k < batch; ++k) {
                               ip[k] = &xs[static_cast<size_t>(s0 + k)];
                               op[k] = &outs[static_cast<size_t>(s0 + k)];
                             }
                             bootstrap_batch(teng, bk, cloud.ks, params.mu(),
                                             ip, op, batch, ws, ks_ws);
                           }
                         },
                         0.0});
      }
      for (auto& mode : modes) mode.run(); // warm: key pages, workspace, testv
      constexpr int kRounds = 6;
      for (int round = 0; round < kRounds; ++round) {
        for (auto& mode : modes) {
          const auto t0 = std::chrono::steady_clock::now();
          mode.run();
          const auto dt = std::chrono::steady_clock::now() - t0;
          const double us =
              std::chrono::duration<double, std::micro>(dt).count() / kSamples;
          if (round == 0 || us < mode.best_us) mode.best_us = us;
        }
      }
      const double base_us = modes.front().best_us;
      for (const auto& mode : modes) {
        emit(mode.name.c_str(), mode.batch, mode.best_us, base_us);
      }

      // Sanity: batched outputs must still decrypt to the input bits.
      bool ok = true;
      for (int s = 0; s < kSamples; ++s) {
        ok &= sk.decrypt_bit(outs[static_cast<size_t>(s)]) == (s & 1);
      }
      if (!ok) std::printf("%-10s DECRYPT MISMATCH\n", teng.level_name());
    }
  }
  j.end_array();

  std::printf("\n-- DAG optimizer + wavefront profile (8-bit mul+cmp) --\n");
  BigCircuit big;
  const CompiledGraph opt = big.builder.compile();
  const auto& st = opt.stats;
  std::printf("gates %d -> %d (folded %d, cse %d, dead %d), bootstraps "
              "%lld -> %lld\n",
              st.gates_before, st.gates_after, st.folded, st.cse_hits,
              st.dead_removed, static_cast<long long>(st.bootstraps_before),
              static_cast<long long>(st.bootstraps_after));
  const auto fronts = opt.graph.wavefronts();
  size_t max_width = 0;
  for (const auto& f : fronts) max_width = std::max(max_width, f.size());
  std::printf("%zu wavefronts, max width %zu, mean width %.1f\n", fronts.size(),
              max_width,
              fronts.empty() ? 0.0
                             : static_cast<double>(opt.graph.num_gates()) /
                                   fronts.size());
  j.name("wavefront");
  j.begin_object();
  j.field("gates_before", st.gates_before);
  j.field("gates_after", st.gates_after);
  j.field("folded", st.folded);
  j.field("cse_hits", st.cse_hits);
  j.field("dead_removed", st.dead_removed);
  j.field("cones_fused", st.cones_fused);
  j.field("gates_absorbed", st.fused_away);
  j.field("bootstraps_before", st.bootstraps_before);
  j.field("bootstraps_after", st.bootstraps_after);
  j.field("wavefronts", static_cast<int64_t>(fronts.size()));
  j.field("max_width", static_cast<int64_t>(max_width));
  j.end_object();

  std::printf("\n-- LUT cone fusion: bootstraps with fuse_lut_cones off/on --\n");
  j.name("fusion");
  j.begin_array();
  report_fusion(j, "mul8+cmp", big.builder);
  Bundle bundle;
  report_fusion(j, "add8+cmp8+mul8", bundle.builder);
  MuxTree16 muxtree;
  report_fusion(j, "muxtree16x4", muxtree.builder);
  XorChain16 xorchain;
  report_fusion(j, "xorchain16", xorchain.builder);
  j.end_array();

  // A single optimized circuit across the thread sweep: wavefront slicing
  // must let one circuit use every worker.
  const uint64_t vx = 181, vy = 103;
  std::vector<LweSample> inputs;
  for (const uint64_t v : {vx, vy}) {
    const EncWord e = circuits::encrypt_word(sk, v, kWidth, rng);
    inputs.insert(inputs.end(), e.bits.begin(), e.bits.end());
  }
  std::printf("%-8s%12s%12s%10s%8s\n", "threads", "wall_ms", "gates/s",
              "speedup", "ok");
  j.name("single_circuit_sweep");
  j.begin_array();
  double t1 = 0;
  for (const int threads : {1, 2, 4, 8}) {
    BatchExecutor<SimdFftEngine> ex(make_engine, dev.bk, *dev.ks,
                                    params.mu(), threads);
    const BatchResult r = ex.run(opt.graph, inputs);
    const auto& es = ex.last_stats();
    if (threads == 1) t1 = es.wall_ms;
    EncWord prod;
    for (const Wire w : big.prod.bits) prod.bits.push_back(r.at(opt.remap(w)));
    const bool ok = circuits::decrypt_word(sk, prod) == ((vx * vy) & 0xFF) &&
                    sk.decrypt_bit(r.at(opt.remap(big.gt))) == (vx > vy) &&
                    sk.decrypt_bit(r.at(opt.remap(big.eq))) == (vx == vy);
    std::printf("%-8d%12.1f%12.0f%10.2f%8s\n", threads, es.wall_ms,
                es.gates * 1e3 / es.wall_ms, t1 / es.wall_ms,
                ok ? "ok" : "WRONG");
    j.begin_object();
    j.field("threads", threads);
    j.field("wall_ms", es.wall_ms);
    j.field("speedup", t1 / es.wall_ms);
    j.field("pool_dispatches", es.pool_dispatches);
    j.field("workers", es.workers);
    j.field("steals", es.steals);
    j.field("sched_efficiency", es.sched_efficiency);
    j.field("ok", ok);
    j.end_object();
  }
  j.end_array();

  std::printf("\n-- simulated MATCHA chip, batch across pipelines (m=3) --\n");
  const TfheParams paper = TfheParams::security110();
  std::printf("%-8s%12s%12s%12s%12s%12s\n", "batch", "makespan_ms", "gates/s",
              "speedup", "occupancy", "hbm_util");
  j.name("sim_batch");
  j.begin_array();
  const auto sim_batch_row = [&](int m, int batch) {
    const auto b = sim::simulate_batch(paper, m, batch);
    std::printf("%-8d%12.3f%12.0f%12.2f%12.2f%12.2f\n", batch, b.makespan_ms,
                b.gates_per_s, b.speedup_vs_serial, b.pipeline_occupancy,
                b.hbm_utilization);
    j.begin_object();
    j.field("unroll_m", m);
    j.field("batch", batch);
    j.field("makespan_ms", b.makespan_ms);
    j.field("gates_per_s", b.gates_per_s);
    j.field("speedup_vs_serial", b.speedup_vs_serial);
    j.field("pipeline_occupancy", b.pipeline_occupancy);
    j.field("hbm_utilization", b.hbm_utilization);
    j.end_object();
  };
  for (const int batch : {1, 2, 4, 8, 16, 32, 64}) sim_batch_row(3, batch);
  std::printf("\n(m=1, compute-bound: pipelines scale further before the HBM "
              "key stream saturates)\n");
  for (const int batch : {8, 32}) sim_batch_row(1, batch);
  j.end_array();

  std::printf("\n-- simulated chip, dependency-aware circuit schedule --\n");
  std::printf("%-12s%-8s%8s%8s%12s%12s%12s%12s\n", "circuit", "m", "boots",
              "depth", "makespan_ms", "boots/s", "speedup", "occupancy");
  j.name("sim_circuit");
  j.begin_array();
  {
    Workload addcmp(1);
    const sim::GateDag adder_dag =
        exec::to_gate_dag(addcmp.builder.compile().graph);
    const sim::GateDag big_dag = exec::to_gate_dag(opt.graph);
    const struct { const char* name; const sim::GateDag* dag; } circuits[] = {
        {"add8+cmp", &adder_dag}, {"mul8+cmp", &big_dag}};
    for (const auto& c : circuits) {
      for (const int m : {1, 3}) {
        const auto r = sim::simulate_circuit(paper, m, *c.dag);
        std::printf("%-12s%-8d%8lld%8d%12.3f%12.0f%12.2f%12.2f\n", c.name, m,
                    static_cast<long long>(r.total_bootstraps),
                    r.critical_path, r.time_ms, r.bootstraps_per_s,
                    r.effective_parallelism, r.pipeline_occupancy);
        j.begin_object();
        j.field("circuit", c.name);
        j.field("unroll_m", m);
        j.field("gates", r.gates);
        j.field("bootstraps", r.total_bootstraps);
        j.field("critical_path", r.critical_path);
        j.field("makespan_ms", r.time_ms);
        j.field("bootstraps_per_s", r.bootstraps_per_s);
        j.field("effective_parallelism", r.effective_parallelism);
        j.field("pipeline_occupancy", r.pipeline_occupancy);
        j.field("hbm_utilization", r.hbm_utilization);
        j.end_object();
      }
    }
  }
  j.end_array();

  std::printf("\n-- multi-chip sharding (mul8+cmp bundle, partitioned) --\n");
  std::printf("%-6s%-6s%12s%12s%10s%10s%8s%10s%15s\n", "m", "chips",
              "makespan_ms", "greedy_ms", "refine%", "speedup", "cut", "xfers",
              "partition");
  j.name("multichip");
  j.begin_array();
  {
    const sim::GateDag big_dag = exec::to_gate_dag(opt.graph);
    for (const int m : {1, 3}) {
      double t_one = 0;
      for (const int chips : {1, 2, 4}) {
        const auto r =
            sim::simulate_circuit_multichip(paper, m, big_dag, chips);
        if (chips == 1) t_one = r.time_ms;
        double mean_occ = 0;
        for (const double o : r.chip_occupancy) mean_occ += o;
        mean_occ /= r.chip_occupancy.empty() ? 1 : r.chip_occupancy.size();
        std::printf("%-6d%-6d%12.3f%12.3f%10.1f%10.2f%8lld%10lld%15s\n", m,
                    chips, r.time_ms, r.time_greedy_ms, 100.0 * r.refine_gain,
                    t_one / r.time_ms, static_cast<long long>(r.cut_wires),
                    static_cast<long long>(r.transfers),
                    r.partition_source.c_str());
        j.begin_object();
        j.field("circuit", "mul8+cmp");
        j.field("unroll_m", m);
        j.field("chips", chips);
        j.field("makespan_ms", r.time_ms);
        j.field("makespan_greedy_ms", r.time_greedy_ms);
        j.field("refine_gain", r.refine_gain);
        j.field("partition_source", r.partition_source.c_str());
        j.field("speedup_vs_1chip", t_one / r.time_ms);
        j.field("cut_wires", r.cut_wires);
        j.field("transfers", r.transfers);
        j.field("transfer_cycles_each", r.transfer_cycles);
        j.field("transfer_busy_ms", r.transfer_busy_ms);
        j.field("link_utilization", r.link_utilization);
        j.field("bootstraps_per_s", r.bootstraps_per_s);
        j.field("effective_parallelism", r.effective_parallelism);
        j.name("chip_occupancy");
        j.begin_array();
        for (const double o : r.chip_occupancy) j.value(o);
        j.end_array();
        j.name("chip_bootstraps");
        j.begin_array();
        for (const int64_t b : r.chip_bootstraps) j.value(b);
        j.end_array();
        j.end_object();
      }
    }
  }
  j.end_array();

  std::printf(
      "\n-- replicate-vs-shard policy (mul8+cmp, batch x chips, m=3) --\n");
  std::printf("%-8s%-8s%12s%8s%14s%12s%12s%10s\n", "batch", "chips", "policy",
              "groups", "batch_ms", "circ/s", "thr_speedup", "xfers");
  j.name("multichip_policy");
  j.begin_array();
  {
    const sim::GateDag big_dag = exec::to_gate_dag(opt.graph);
    constexpr int kPolicyM = 3;
    for (const int chips : {2, 4}) {
      for (const int batch : {1, 2, 4, 8}) {
        const auto r = sim::simulate_batch_policy(paper, kPolicyM, big_dag,
                                                  batch, chips);
        const auto r1 =
            sim::simulate_batch_policy(paper, kPolicyM, big_dag, batch, 1);
        const double thr_speedup =
            r.time_ms > 0 ? r1.time_ms / r.time_ms : 0.0;
        std::printf("%-8d%-8d%12s%8d%14.3f%12.1f%12.2f%10lld\n", batch, chips,
                    r.policy_label.c_str(), r.replica_groups, r.time_ms,
                    r.circuits_per_s, thr_speedup,
                    static_cast<long long>(r.transfers));
        j.begin_object();
        j.field("circuit", "mul8+cmp");
        j.field("unroll_m", kPolicyM);
        j.field("batch", batch);
        j.field("chips", chips);
        j.field("policy", r.policy_label.c_str());
        j.field("replica_groups", r.replica_groups);
        j.field("group_size", r.group_size);
        j.field("makespan_ms", r.time_ms);
        j.field("throughput_speedup_vs_1chip", thr_speedup);
        j.field("circuits_per_s", r.circuits_per_s);
        j.field("bootstraps_per_s", r.bootstraps_per_s);
        j.field("total_bootstraps", r.total_bootstraps);
        j.field("cut_wires", r.cut_wires);
        j.field("transfers", r.transfers);
        j.field("link_utilization", r.link_utilization);
        j.name("considered");
        j.begin_array();
        for (const auto& v : r.considered) {
          j.begin_object();
          j.field("policy", v.policy_label.c_str());
          j.field("replica_groups", v.replica_groups);
          j.field("makespan_ms", v.time_ms);
          j.end_object();
        }
        j.end_array();
        j.end_object();
      }
    }
  }
  j.end_array();
  j.end_object();
  std::fclose(jf);
  if (json_ok) std::printf("\nwrote BENCH_batch_throughput.json\n");
  return 0;
}
