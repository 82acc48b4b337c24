// Software workloads: the product path SimdFftEngine + CompiledGraph +
// BatchExecutor at the paper's 110-bit parameters, driven through the public
// API exactly as a client and a server would use it.
#include <cassert> // first: tfhe/tgsw.h uses assert without including it

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "fft/simd_fft.h"
#include "io/serialize.h"
#include "tfhe/bootstrap.h"
#include "tfhe/keyset.h"
#include "workloads.h"

namespace perfbench {

using namespace matcha;
using Engine = SimdFftEngine;

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

Circuit::Circuit(CircuitKind k) : kind(k) {
  exec::SymWordCircuits wc(builder);
  const exec::SymWord x = builder.input_word(kWidth);
  const exec::SymWord y = builder.input_word(kWidth);
  std::vector<exec::Wire> outs;
  if (k == CircuitKind::kMul8Cmp) {
    outs = wc.multiply(x, y).bits;
    outs.push_back(wc.greater_than(x, y));
    outs.push_back(wc.equal(x, y));
  } else {
    outs = wc.add(x, y, nullptr, /*with_carry_out=*/true).bits;
    outs.push_back(wc.greater_than(x, y));
  }
  for (const exec::Wire w : outs) builder.mark_output(w);
  outputs = std::move(outs);
}

std::vector<int> Circuit::oracle(uint64_t x, uint64_t y) const {
  std::vector<int> bits;
  if (kind == CircuitKind::kMul8Cmp) {
    const uint64_t p = (x * y) & 0xFF;
    for (int i = 0; i < kWidth; ++i) bits.push_back(static_cast<int>((p >> i) & 1));
    bits.push_back(x > y ? 1 : 0);
    bits.push_back(x == y ? 1 : 0);
  } else {
    const uint64_t s = x + y;
    for (int i = 0; i <= kWidth; ++i) bits.push_back(static_cast<int>((s >> i) & 1));
    bits.push_back(x > y ? 1 : 0);
  }
  return bits;
}

namespace {

constexpr uint64_t kKeyStream = 1;
constexpr uint64_t kRequestStream = 2;
constexpr uint64_t kReplayStream = 3;
constexpr int kSetups = 3;

struct SetupTimes {
  double keygen_s = 0, write_s = 0, read_s = 0, load_s = 0;
  double compile_ms = 0, init_ms = 0, total_s = 0;
  double keyset_bytes = 0;
};

/// Everything the server holds after set-up. Heap-pinned: the device keyset
/// points into `server`, and the executor into the device keyset.
struct Deployment {
  TfheParams params;
  SecretKeyset sk; ///< client side: encrypts inputs, decrypts outputs
  CloudKeyset server; ///< the keyset as the server read it off the stream
  std::unique_ptr<Engine> eng;
  DeviceKeyset<Engine> dev;
  std::unique_ptr<Circuit> circuit;
  exec::CompiledGraph compiled;
  std::unique_ptr<exec::BatchExecutor<Engine>> ex;
};

double s_since(Clock::time_point t0) { return ms_since(t0) * 1e-3; }

std::unique_ptr<Deployment> deploy(const SoftwareWorkload& w, uint64_t seed,
                                   Tracer& tr, SetupTimes& t) {
  auto d = std::make_unique<Deployment>();
  d->params = TfheParams::security110();
  const auto t0 = Clock::now();
  CloudKeyset client_cloud;
  {
    auto s = tr.span("tfhe.keygen");
    const auto k0 = Clock::now();
    Rng rng(mix(seed, kKeyStream));
    d->sk = SecretKeyset::generate(d->params, rng);
    client_cloud = make_cloud_keyset(d->sk, w.unroll_m, rng);
    t.keygen_s = s_since(k0);
  }
  std::string bytes;
  {
    auto s = tr.span("io.write_cloud_keyset");
    const auto k0 = Clock::now();
    std::ostringstream os;
    io::write_cloud_keyset(os, client_cloud);
    bytes = std::move(os).str();
    t.write_s = s_since(k0);
  }
  t.keyset_bytes = static_cast<double>(bytes.size());
  client_cloud = CloudKeyset{}; // the client keeps only its secret keys
  {
    auto s = tr.span("io.read_cloud_keyset");
    const auto k0 = Clock::now();
    std::istringstream is(std::move(bytes));
    StatusOr<CloudKeyset> read = io::try_read_cloud_keyset(is);
    if (!read.ok()) throw StatusError(read.status());
    d->server = std::move(read).value();
    t.read_s = s_since(k0);
  }
  {
    auto s = tr.span("bku.load_device_keyset");
    const auto k0 = Clock::now();
    d->eng = std::make_unique<Engine>(d->params.ring.n_ring);
    d->dev = load_device_keyset(*d->eng, d->server);
    t.load_s = s_since(k0);
  }
  {
    auto s = tr.span("exec.compile");
    const auto k0 = Clock::now();
    d->circuit = std::make_unique<Circuit>(w.circuit);
    // Gate-level compile: no pass may create LUT nodes. Fused LUT cones
    // decode wrongly about once in 1000 circuits at both m = 2 and m = 3
    // (METRICS.md), and a workload must not fail.
    exec::OptimizeOptions opts;
    opts.fuse_lut_cones = false;
    opts.flatten_mux_trees = false;
    d->compiled = d->circuit->builder.compile(opts);
    t.compile_ms = ms_since(k0);
  }
  {
    auto s = tr.span("exec.executor_init");
    const auto k0 = Clock::now();
    const int n_ring = d->params.ring.n_ring;
    d->ex = std::make_unique<exec::BatchExecutor<Engine>>(
        [n_ring] { return std::make_unique<Engine>(n_ring); }, d->dev.bk,
        *d->dev.ks, d->params.mu(), w.threads);
    t.init_ms = ms_since(k0);
  }
  t.total_s = s_since(t0);
  return d;
}

/// Bytes of the device bootstrapping key: the spectral TGSW rows plus the
/// group-major streaming arena.
double bsk_device_bytes(const DeviceBootstrapKey<Engine>& bk) {
  double bytes = static_cast<double>(bk.soa.size()) * sizeof(double);
  for (const auto& group : bk.groups) {
    for (const auto& tgsw : group) {
      for (const auto& row : tgsw.rows) {
        for (const auto& poly : row) {
          bytes += static_cast<double>(poly.re.size() + poly.im.size()) *
                   sizeof(double);
        }
      }
    }
  }
  return bytes;
}

struct NoiseTally {
  double min_margin = 1.0;
  int64_t suspect = 0;
  int64_t decodes = 0;

  void add(const DecodeAudit& a) {
    min_margin = std::min(min_margin, a.margin());
    suspect += a.suspect ? 1 : 0;
    ++decodes;
  }
};

struct RequestResult {
  double latency_ms = 0, encrypt_ms = 0, decrypt_ms = 0;
  exec::BatchStats stats;
  EngineCounters counters;
  int64_t items = 0;
  int64_t failed = 0; ///< wrong output bits or a non-ok status
  NoiseTally noise;
};

/// The counts a request reproduces exactly whenever it is served again: its
/// ciphertexts, and so the executor's work and the decode margins, are
/// functions of the seed and the request id.
std::map<std::string, std::string> fingerprint(const RequestResult& r) {
  char margin[40];
  std::snprintf(margin, sizeof(margin), "%.17g", r.noise.min_margin);
  return {
      {"exec.stats_bootstraps", std::to_string(r.stats.bootstraps)},
      {"exec.stats_sample_extracts", std::to_string(r.stats.sample_extracts)},
      {"fft.forward_calls", std::to_string(r.counters.to_spectral_calls)},
      {"fft.inverse_calls", std::to_string(r.counters.from_spectral_calls)},
      {"fft.zero_fft_skips", std::to_string(r.counters.zero_fft_skips)},
      {"fft.testv_fft_reuses", std::to_string(r.counters.testv_fft_reuses)},
      {"noise.min_margin", margin},
      {"noise.suspect_decodes", std::to_string(r.noise.suspect)},
      {"noise.decodes", std::to_string(r.noise.decodes)},
  };
}

RequestResult run_request(Deployment& d, const SoftwareWorkload& w,
                          uint64_t seed, int64_t req, Tracer& tr) {
  RequestResult r;
  const auto t0 = Clock::now();
  auto root = tr.span("bench.request", req);
  Rng rng(mix(mix(seed, kRequestStream), static_cast<uint64_t>(req)));
  std::vector<std::pair<uint64_t, uint64_t>> operands(
      static_cast<size_t>(w.batch));
  for (auto& [x, y] : operands) {
    x = rng.uniform_below(1u << Circuit::kWidth);
    y = rng.uniform_below(1u << Circuit::kWidth);
  }
  std::vector<std::vector<LweSample>> batch(operands.size());
  {
    auto s = tr.span("tfhe.encrypt", req);
    const auto k0 = Clock::now();
    for (size_t b = 0; b < operands.size(); ++b) {
      for (const uint64_t v : {operands[b].first, operands[b].second}) {
        const circuits::EncWord e =
            circuits::encrypt_word(d.sk, v, Circuit::kWidth, rng);
        batch[b].insert(batch[b].end(), e.bits.begin(), e.bits.end());
      }
    }
    r.encrypt_ms = ms_since(k0);
  }
  std::vector<exec::BatchResult> results;
  {
    auto s = tr.span("exec.run_batch", req);
    d.ex->reset_counters();
    results = d.ex->run_batch(d.compiled.graph, std::move(batch));
  }
  r.stats = d.ex->last_stats();
  r.counters = d.ex->counters();
  std::vector<std::vector<int>> got(operands.size());
  {
    auto s = tr.span("tfhe.decrypt", req);
    const auto k0 = Clock::now();
    for (size_t b = 0; b < results.size(); ++b) {
      if (!results[b].status.ok()) continue;
      for (const exec::Wire wire : d.circuit->outputs) {
        const DecodeAudit a =
            d.sk.decrypt_bit_audited(results[b].at(d.compiled.remap(wire)));
        r.noise.add(a);
        got[b].push_back(a.value);
      }
    }
    r.decrypt_ms = ms_since(k0);
  }
  {
    auto s = tr.span("bench.check", req);
    for (size_t b = 0; b < results.size(); ++b) {
      const auto [x, y] = operands[b];
      const std::vector<int> want = d.circuit->oracle(x, y);
      if (results[b].status.ok() && got[b] == want) continue;
      ++r.failed;
      std::string bits;
      for (size_t i = 0; i < got[b].size(); ++i) {
        bits += got[b][i] == want[i] ? '.' : 'X';
      }
      std::fprintf(stderr,
                   "perfbench: request %lld item %zu (x=%llu, y=%llu) failed: "
                   "%s, output bits [%s] (X = wrong)\n",
                   static_cast<long long>(req), b,
                   static_cast<unsigned long long>(x),
                   static_cast<unsigned long long>(y),
                   results[b].status.to_string().c_str(), bits.c_str());
    }
  }
  r.items = static_cast<int64_t>(results.size());
  r.latency_ms = ms_since(t0);
  return r;
}

struct ReplayResult {
  double blind_rotate_us = 0, keyswitch_us = 0, unattributed_us = 0;
  int group = 1;
  int64_t failed = 0;
};

/// Single-threaded replay of one request's bootstraps through the executor's
/// two batch primitives, at its keyswitch group size and on its keys, with
/// fresh encryptions as inputs (blind-rotation cost does not depend on the
/// plaintext).
ReplayResult replay(Deployment& d, const SoftwareWorkload& w,
                    int64_t bootstraps, uint64_t seed, Tracer& tr) {
  ReplayResult out;
  // Mirrors BatchExecutor::ks_group_for: min(8, items / threads), at least 1.
  out.group = std::max(1, std::min(8, w.batch / w.threads));
  const size_t g = static_cast<size_t>(out.group);
  Engine eng(d.params.ring.n_ring);
  BootstrapWorkspace<Engine> ws(eng, d.params.gadget);
  KeySwitchWorkspace ks_ws;
  Rng rng(mix(seed, kReplayStream));
  std::vector<LweSample> in(g), stage(g), res(g);
  std::vector<const LweSample*> in_p(g), ks_in(g);
  std::vector<LweSample*> stage_p(g), res_p(g);
  for (size_t k = 0; k < g; ++k) {
    in_p[k] = &in[k];
    stage_p[k] = &stage[k];
    ks_in[k] = &stage[k];
    res_p[k] = &res[k];
  }
  std::vector<int> bits(g);
  // One flush of k fresh samples; returns its blind-rotation and keyswitch
  // times in ns.
  const auto flush = [&](int k) {
    for (int i = 0; i < k; ++i) {
      bits[static_cast<size_t>(i)] = rng.uniform_bit();
      in[static_cast<size_t>(i)] =
          d.sk.encrypt_bit(bits[static_cast<size_t>(i)], rng);
    }
    const auto t0 = Clock::now();
    {
      auto s = tr.span("tfhe.bootstrap_wo_keyswitch_batch");
      bootstrap_wo_keyswitch_batch(eng, d.dev.bk, d.params.mu(), in_p.data(),
                                   stage_p.data(), k, ws);
    }
    const auto t1 = Clock::now();
    {
      auto s = tr.span("tfhe.key_switch_batch");
      key_switch_batch(*d.dev.ks, ks_in.data(), res_p.data(), k, ks_ws);
    }
    const auto t2 = Clock::now();
    for (int i = 0; i < k; ++i) {
      out.failed += d.sk.decrypt_bit(res[static_cast<size_t>(i)]) !=
                    bits[static_cast<size_t>(i)];
    }
    return std::make_pair(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
  };
  flush(out.group); // untimed: warms the workspace and test-vector cache
  eng.counters().reset();
  int64_t br_ns = 0, ks_ns = 0;
  for (int64_t done = 0; done < bootstraps; done += out.group) {
    const auto [br, ks] =
        flush(static_cast<int>(std::min<int64_t>(out.group, bootstraps - done)));
    br_ns += br;
    ks_ns += ks;
  }
  const double n = static_cast<double>(std::max<int64_t>(bootstraps, 1));
  const int64_t fft_ns =
      eng.counters().to_spectral_ns + eng.counters().from_spectral_ns;
  out.blind_rotate_us = static_cast<double>(br_ns) * 1e-3 / n;
  out.keyswitch_us = static_cast<double>(ks_ns) * 1e-3 / n;
  out.unattributed_us = static_cast<double>(br_ns - fft_ns) * 1e-3 / n;
  return out;
}

} // namespace

Report run_software(const SoftwareWorkload& w, const Options& opt,
                    Tracer& tr) {
  Report rep;
  tr.set_enabled(opt.trace);

  // Set-up, several times; the last deployment serves the requests. Every
  // set-up must compile the same graph.
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<Deployment> d;
  std::string first_graph;
  for (auto& t : setups) {
    d.reset(); // at most one deployment alive at a time
    d = deploy(w, opt.seed, tr, t);
    const std::string graph =
        std::to_string(d->compiled.graph.bootstrap_count()) + "/" +
        std::to_string(d->compiled.stats.depth_after);
    if (first_graph.empty()) first_graph = graph;
    if (graph != first_graph) rep.mismatches.push_back("exec.bootstraps/exec.depth");
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : setups) v.push_back(t.*field);
    return median(v);
  };
  rep.set("setup_s", setup_median(&SetupTimes::total_s), kSetups);
  rep.set("tfhe.keygen_s", setup_median(&SetupTimes::keygen_s), kSetups);
  rep.set("io.keyset_bytes", setups.back().keyset_bytes);
  rep.set("io.keyset_write_s", setup_median(&SetupTimes::write_s), kSetups);
  rep.set("io.keyset_read_s", setup_median(&SetupTimes::read_s), kSetups);
  rep.set("bku.device_load_s", setup_median(&SetupTimes::load_s), kSetups);
  rep.set("bku.bsk_device_bytes", bsk_device_bytes(d->dev.bk));
  rep.set("exec.executor_init_ms", setup_median(&SetupTimes::init_ms), kSetups);
  rep.set("exec.compile_ms", setup_median(&SetupTimes::compile_ms), kSetups);

  const exec::GateGraph& graph = d->compiled.graph;
  const int64_t bootstraps = graph.bootstrap_count() * w.batch;
  rep.set("exec.bootstraps", static_cast<double>(bootstraps));
  rep.set("exec.depth", d->compiled.stats.depth_after);
  rep.set("exec.sample_extracts",
          static_cast<double>(graph.extraction_count() * w.batch));

  // Warm-up request 0: not timed. Its engine counts and decode margins are
  // the deterministic record that request 0 must repeat after the window.
  tr.set_enabled(false);
  const RequestResult warm = run_request(*d, w, opt.seed, 0, tr);
  rep.attempted += warm.items;
  rep.failed += warm.failed;
  const EngineCounters& wc = warm.counters;
  rep.set("fft.forward_calls", static_cast<double>(wc.to_spectral_calls));
  rep.set("fft.inverse_calls", static_cast<double>(wc.from_spectral_calls));
  rep.set("fft.zero_fft_skips", static_cast<double>(wc.zero_fft_skips));
  rep.set("fft.testv_fft_reuses", static_cast<double>(wc.testv_fft_reuses));
  rep.set("noise.min_margin", warm.noise.min_margin);
  rep.set("noise.suspect_decodes", static_cast<double>(warm.noise.suspect));
  rep.set("noise.decodes", static_cast<double>(warm.noise.decodes));

  // Measured window. A traced run traces the even requests only; the p50
  // difference between them and the interleaved odd ones is the tracing
  // overhead, with host drift cancelling out.
  std::vector<RequestResult> window;
  std::vector<double> untraced_ms, traced_ms;
  const size_t min_requests = opt.trace ? 2 : 1;
  const auto w0 = Clock::now();
  for (int64_t req = 1;
       window.size() < min_requests || ms_since(w0) < opt.seconds * 1e3; ++req) {
    const bool traced = opt.trace && req % 2 == 0;
    tr.set_enabled(traced);
    window.push_back(run_request(*d, w, opt.seed, req, tr));
    (traced ? traced_ms : untraced_ms).push_back(window.back().latency_ms);
  }
  tr.set_enabled(false);

  // Serve request 0 again: every deterministic count must repeat.
  const RequestResult again = run_request(*d, w, opt.seed, 0, tr);
  rep.attempted += again.items;
  rep.failed += again.failed;
  const auto want = fingerprint(warm);
  for (const auto& [k, v] : fingerprint(again)) {
    if (want.at(k) != v) rep.mismatches.push_back(k);
  }

  std::vector<double> latency, encrypt, decrypt, wall, busy, idle, steals,
      per_s, core_ms, fwd_ms, inv_ms, fft_share;
  double total_s = 0;
  int64_t faulted = 0, retries = 0;
  for (const RequestResult& r : window) {
    rep.attempted += r.items;
    rep.failed += r.failed;
    total_s += r.latency_ms * 1e-3;
    latency.push_back(r.latency_ms);
    encrypt.push_back(r.encrypt_ms);
    decrypt.push_back(r.decrypt_ms);
    const exec::BatchStats& st = r.stats;
    const double b_ms = st.sched_efficiency * st.workers * st.wall_ms;
    wall.push_back(st.wall_ms);
    busy.push_back(b_ms);
    idle.push_back(st.workers * st.wall_ms - b_ms);
    steals.push_back(static_cast<double>(st.steals));
    per_s.push_back(static_cast<double>(st.bootstraps) * 1e3 / st.wall_ms);
    core_ms.push_back(b_ms / static_cast<double>(std::max<int64_t>(st.bootstraps, 1)));
    const double f = static_cast<double>(r.counters.to_spectral_ns) * 1e-6;
    const double i = static_cast<double>(r.counters.from_spectral_ns) * 1e-6;
    fwd_ms.push_back(f);
    inv_ms.push_back(i);
    fft_share.push_back(b_ms > 0 ? (f + i) / b_ms : 0);
    faulted += st.faulted_items;
    retries += st.retry_runs;
  }
  const int64_t n = static_cast<int64_t>(window.size());
  rep.requests = n;
  rep.set("latency_p50_ms", median(latency), n);
  if (n >= 100) rep.latency_p90_ms = quantile(latency, 0.9);
  rep.set("circuits_per_s",
          static_cast<double>(n * w.batch) / std::max(total_s, 1e-9), n);
  rep.set("tfhe.encrypt_ms", median(encrypt), n);
  rep.set("tfhe.decrypt_ms", median(decrypt), n);
  rep.set("exec.run_batch_ms", median(wall), n);
  rep.set("exec.busy_ms", median(busy), n);
  rep.set("exec.idle_ms", median(idle), n);
  rep.set("exec.steals", median(steals), n);
  rep.set("exec.faulted_items", static_cast<double>(faulted), n);
  rep.set("exec.retry_runs", static_cast<double>(retries), n);
  rep.set("exec.bootstraps_per_s", median(per_s), n);
  rep.set("exec.core_ms_per_bootstrap", median(core_ms), n);
  rep.set("fft.forward_ms", median(fwd_ms), n);
  rep.set("fft.inverse_ms", median(inv_ms), n);
  rep.set("fft.share_of_busy", median(fft_share), n);
  rep.set("bench.error_rate",
          static_cast<double>(rep.failed) /
              static_cast<double>(std::max<int64_t>(rep.attempted, 1)),
          rep.attempted);

  if (opt.trace) {
    const auto self = tr.self_ms_per_request();
    const int64_t nt = static_cast<int64_t>(traced_ms.size());
    for (const char* layer : {"tfhe", "exec", "bench"}) {
      const auto it = self.find(layer);
      rep.set(std::string(layer) + ".self_ms", it == self.end() ? 0 : it->second, nt);
    }
    const double base = median(untraced_ms);
    rep.set("trace.overhead_pct",
            base > 0 ? 100.0 * (median(traced_ms) / base - 1.0) : 0, nt);

    tr.set_enabled(true);
    const ReplayResult rp = replay(*d, w, bootstraps, opt.seed, tr);
    tr.set_enabled(false);
    rep.failed += rp.failed;
    rep.set("tfhe.blind_rotate_us", rp.blind_rotate_us, bootstraps);
    rep.set("tfhe.keyswitch_us", rp.keyswitch_us, bootstraps);
    rep.set("tfhe.unattributed_us", rp.unattributed_us, bootstraps);
    rep.set("tfhe.ksk_bytes_per_sample",
            static_cast<double>(d->dev.ks->key_bytes()) / rp.group);
    rep.set("bku.bsk_bytes_per_bootstrap",
            static_cast<double>(d->dev.bk.soa.size() * sizeof(double)) / rp.group);
    const double single_ms = (rp.blind_rotate_us + rp.keyswitch_us) * 1e-3;
    rep.set("exec.contention_ratio",
            single_ms > 0 ? median(core_ms) / single_ms : 0, n);
  }
  rep.set("peak_rss_mb", peak_rss_mb());
  return rep;
}

} // namespace perfbench
