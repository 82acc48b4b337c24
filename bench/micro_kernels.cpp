// Micro-kernel latencies of the spectral bottom layer, scalar vs SIMD:
// forward/inverse negacyclic FFT, bundle rotation, the fused bundle step,
// and a whole software gate bootstrap, with the double-precision reference
// engine's FFT, pointwise MAC, rotation and external product alongside. On
// an AVX-512 host the avx2 tier's kernel rows are timed too. Every row is
// the median of kTrials timed repetitions and carries its quartiles. Emits
// BENCH_micro_kernels.json (JsonWriter) so scripts/bench_trend.py can gate
// software-bootstrap-latency regressions commit over commit; it reads the
// median as `ns_op` / `ns_per_sample`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "fft/double_fft.h"
#include "fft/simd_fft.h"
#include "tfhe/keyset.h"

namespace {

using namespace matcha;
using bench::JsonWriter;

constexpr int kRingN = 1024; // the paper's N for kernel-level numbers

constexpr int kTrials = 7; // timed repetitions per row

/// One row's timing in ns per call: the median and quartiles over kTrials
/// timed repetitions of `reps` calls each. One repetition alone moves by
/// more than 50% between runs on a shared host.
struct Timing {
  double median = 0, q1 = 0, q3 = 0;
  int trials = 0;

  Timing per(int n) const { return {median / n, q1 / n, q3 / n, trials}; }
};

Timing time_ns_per_op(const std::function<void()>& fn, int reps) {
  fn(); // warm caches + page in buffers
  std::vector<double> ns(kTrials);
  for (double& t : ns) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const auto dt = std::chrono::steady_clock::now() - t0;
    t = std::chrono::duration<double, std::nano>(dt).count() / reps;
  }
  std::sort(ns.begin(), ns.end());
  // Linear interpolation between the order statistics around quantile p.
  const auto quantile = [&](double p) {
    const double pos = p * (kTrials - 1);
    const int lo = static_cast<int>(pos);
    const int hi = std::min(lo + 1, kTrials - 1);
    return ns[lo] + (pos - lo) * (ns[hi] - ns[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75), kTrials};
}

/// The median as `name`, with `name`_q1, `name`_q3 and the trial count.
void write_timing(JsonWriter& j, const std::string& name, const Timing& t) {
  j.field(name.c_str(), t.median);
  j.field((name + "_q1").c_str(), t.q1);
  j.field((name + "_q3").c_str(), t.q3);
  j.field("trials", t.trials);
}

struct Row {
  std::string kernel, path;
  Timing ns;
};

TorusPolynomial random_torus_poly(Rng& rng, int n) {
  TorusPolynomial p(n);
  for (auto& c : p.coeffs) c = rng.uniform_torus();
  return p;
}

IntPolynomial random_digit_poly(Rng& rng, int n) {
  IntPolynomial p(n);
  for (auto& c : p.coeffs) c = static_cast<int>(rng.uniform_below(1024)) - 512;
  return p;
}

/// FFT and bundle-rotation rows for one SIMD tier: the engine's two timed
/// transforms and the vtable's rot_scale_add, the kernels the fused bundle
/// step runs.
void simd_kernel_rows(SimdFftEngine& eng, const char* path,
                      std::vector<Row>& out) {
  Rng rng(17);
  const TorusPolynomial tp = random_torus_poly(rng, kRingN);
  const int32_t* in = reinterpret_cast<const int32_t*>(tp.coeffs.data());
  SpectralP s(eng.spectral_size()), dst(eng.spectral_size());
  TorusPolynomial back(kRingN);

  out.push_back({"fft_fwd", path, time_ns_per_op([&] {
                   eng.forward_raw(in, s.re.data(), s.im.data());
                 }, 400)});
  out.push_back({"fft_inv", path, time_ns_per_op([&] {
                   eng.inverse_raw(s.re.data(), s.im.data(), back.coeffs.data());
                 }, 400)});
  const SpectralKernels& k = eng.kernels();
  out.push_back({"rot_scale_add", path, time_ns_per_op([&] {
                   k.rot_scale_add(eng.plan(), dst.re.data(), dst.im.data(),
                                   s.re.data(), s.im.data(), 1234);
                 }, 2000)});
}

/// FFT/MAC/rot/EP rows of the double-precision reference engine, through
/// the engine-generic API and its materialized external product.
void reference_rows(DoubleFftEngine& eng, std::vector<Row>& out) {
  const char* path = "reference_double";
  Rng rng(17);
  const TfheParams params = TfheParams::security110();
  const TorusPolynomial tp = random_torus_poly(rng, kRingN);
  const IntPolynomial ip = random_digit_poly(rng, kRingN);

  SpectralD sa, sb, acc;
  eng.to_spectral_int(ip, sa);
  eng.to_spectral_torus(tp, sb);
  eng.acc_init(acc);
  TorusPolynomial back(kRingN);

  out.push_back({"fft_fwd", path,
                 time_ns_per_op([&] { eng.to_spectral_torus(tp, sb); }, 400)});
  eng.mac(acc, sa, sb);
  out.push_back({"fft_inv", path,
                 time_ns_per_op([&] { eng.from_spectral_acc(acc, back); }, 400)});
  out.push_back(
      {"mac", path, time_ns_per_op([&] { eng.mac(acc, sa, sb); }, 2000)});
  SpectralD dst(eng.spectral_size());
  out.push_back({"rot_scale_add", path, time_ns_per_op([&] {
                   eng.rot_scale_add(dst, sb, 1234);
                 }, 2000)});

  // External product at the paper parameters (Bg=1024, l=3).
  SecretKeyset sk = [&] {
    Rng krng(23);
    return SecretKeyset::generate(params, krng);
  }();
  SpectralD key_spec;
  eng.to_spectral_int(sk.tlwe.s, key_spec);
  Rng erng(29);
  const TGswSample raw = tgsw_encrypt(eng, sk.tlwe, key_spec, params.gadget,
                                      1, params.ring.sigma, erng);
  auto tgsw = tgsw_to_spectral(eng, raw);
  ExternalProductWorkspace<DoubleFftEngine> ws(eng, params.gadget);
  TLweSample ep_acc(kRingN);
  for (auto& c : ep_acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : ep_acc.b.coeffs) c = erng.uniform_torus();
  out.push_back({"external_product", path, time_ns_per_op([&] {
                   external_product(eng, params.gadget, tgsw, ep_acc, ws);
                 }, 200)});
}

/// One whole bundle-mode blind-rotate group step at the paper parameters
/// (N=1024, Bg=1024, l=3, m=2: three subset members, all active) on the
/// fused rotate-MAC path. Steady-state (st.pristine = false), so the row
/// gets none of the first-group skips.
void bundle_rows(SimdFftEngine& eng, const char* path, std::vector<Row>& out) {
  const TfheParams params = TfheParams::security110();
  SecretKeyset sk = [&] {
    Rng krng(23);
    return SecretKeyset::generate(params, krng);
  }();
  DoubleFftEngine enc_eng(kRingN);
  SpectralD key_spec;
  enc_eng.to_spectral_int(sk.tlwe.s, key_spec);
  Rng erng(37);

  UnrolledBootstrapKey cloud; // one group: the 2^m - 1 subset indicators
  cloud.unroll_m = 2;
  cloud.n_lwe = 2;
  cloud.ring = params.ring;
  cloud.gadget = params.gadget;
  cloud.groups.resize(1);
  for (int i = 0; i < 3; ++i) {
    cloud.groups[0].push_back(tgsw_encrypt(enc_eng, sk.tlwe, key_spec,
                                           params.gadget, i == 0 ? 1 : 0,
                                           params.ring.sigma, erng));
  }
  const auto bk = load_bootstrap_key(eng, cloud);

  BootstrapWorkspace<SimdFftEngine> ws(eng, params.gadget);
  const std::vector<int32_t> exponents{37, 911, 948}; // every subset active
  TLweSample acc(kRingN);
  for (auto& c : acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : acc.b.coeffs) c = erng.uniform_torus();

  BlindRotateState st;
  st.pristine = false;
  out.push_back({"bundle_ep_fused", path, time_ns_per_op([&] {
                   st.pristine = false;
                   bundle_rotate_step(eng, bk, 0, exponents, acc, ws.bundle,
                                      ws.ep, st, nullptr);
                 }, 200)});
}

// ---- keyswitch rows --------------------------------------------------------

/// The pre-SoA keyswitch, reconstructed as the bandwidth baseline: an
/// LweSample table with v == 0 placeholder rows, pointer-chased per-row heap
/// blocks, a fresh output allocation per call, and a scalar accumulate.
struct SeedAosKeySwitch {
  int n_in, n_out, t_used;
  KeySwitchParams params;
  std::vector<LweSample> table; ///< [i][j][v] incl. placeholders, like the seed

  explicit SeedAosKeySwitch(const KeySwitchKey& ks)
      : n_in(ks.n_in), n_out(ks.n_out), t_used(ks.t_used), params(ks.params) {
    const int base = params.base();
    table.assign(static_cast<size_t>(n_in) * t_used * base, LweSample(n_out));
    for (int i = 0; i < n_in; ++i) {
      for (int j = 0; j < t_used; ++j) {
        for (int v = 1; v < base; ++v) {
          table[(static_cast<size_t>(i) * t_used + j) * base + v] =
              ks.row_sample(i, j, static_cast<uint32_t>(v));
        }
      }
    }
  }

  LweSample eval(const LweSample& c) const {
    LweSample out(n_out); // per-call allocation, as the seed did
    out.b = c.b;
    const int prec_bits = params.t * params.basebit;
    const Torus32 off = prec_bits >= 32 ? 0 : 1u << (32 - prec_bits - 1);
    const uint32_t mask = static_cast<uint32_t>(params.base()) - 1;
    for (int i = 0; i < n_in; ++i) {
      for (int j = 0; j < t_used; ++j) {
        const int shift = 32 - (j + 1) * params.basebit;
        const uint32_t v = ((c.a[static_cast<size_t>(i)] + off) >> shift) & mask;
        if (v == 0) continue;
        const LweSample& row =
            table[(static_cast<size_t>(i) * t_used + j) * params.base() + v];
        for (int k = 0; k < n_out; ++k) {
          out.a[static_cast<size_t>(k)] -= row.a[static_cast<size_t>(k)];
        }
        out.b -= row.b;
      }
    }
    return out;
  }
};

struct KsRow {
  std::string path, mode;
  Timing ns; ///< per sample
  double eff_gb_s; ///< key_bytes / median time-per-sample: delivered BW
};

/// Keyswitch latency rows at test_small: the seed AoS baseline, the SoA
/// key_switch_batch with one sample per call (`per_sample`, the eager
/// evaluator's shape; scalar + active SIMD), and with 8 or 32 samples, which
/// streams the key once per batch.
void keyswitch_rows(const CloudKeyset& ck, const char* active_name,
                    std::vector<KsRow>& out) {
  const KeySwitchKey& ks = ck.ks;
  const double key_bytes = static_cast<double>(ks.key_bytes());
  const auto eff = [&](double ns) { return key_bytes / ns; }; // bytes/ns = GB/s

  Rng srng(0x4B53);
  constexpr int kPool = 32;
  std::vector<LweSample> in(kPool, LweSample(ks.n_in));
  for (auto& c : in) {
    for (auto& a : c.a) a = srng.uniform_torus();
    c.b = srng.uniform_torus();
  }

  { // seed baseline
    const SeedAosKeySwitch seed(ks);
    int idx = 0;
    const Timing ns = time_ns_per_op(
        [&] { (void)seed.eval(in[static_cast<size_t>(idx++ % kPool)]); }, 400);
    out.push_back({"seed_aos", "per_sample", ns, eff(ns.median)});
  }

  const auto per_sample = [&](SimdLevel level, const char* path) {
    LweSample o(ks.n_out);
    LweSample* op = &o;
    KeySwitchWorkspace ws;
    int idx = 0;
    const Timing ns = time_ns_per_op(
        [&] {
          const LweSample* ip = &in[static_cast<size_t>(idx++ % kPool)];
          key_switch_batch(ks, &ip, &op, 1, ws, level);
        },
        400);
    out.push_back({path, "per_sample", ns, eff(ns.median)});
  };
  const auto batched = [&](SimdLevel level, const char* path, int batch) {
    std::vector<LweSample> o(static_cast<size_t>(batch), LweSample(ks.n_out));
    std::vector<const LweSample*> inp;
    std::vector<LweSample*> outp;
    for (int k = 0; k < batch; ++k) {
      inp.push_back(&in[static_cast<size_t>(k % kPool)]);
      outp.push_back(&o[static_cast<size_t>(k)]);
    }
    KeySwitchWorkspace ws;
    const Timing ns = time_ns_per_op(
        [&] { key_switch_batch(ks, inp.data(), outp.data(), batch, ws, level); },
        200).per(batch);
    out.push_back({path, "batch" + std::to_string(batch), ns, eff(ns.median)});
  };

  per_sample(SimdLevel::kScalar, "scalar");
  batched(SimdLevel::kScalar, "scalar", 8);
  batched(SimdLevel::kScalar, "scalar", 32);
  if (std::string(active_name) != "scalar") {
    const SimdLevel active = active_simd_level();
    per_sample(active, active_name);
    batched(active, active_name, 8);
    batched(active, active_name, 32);
  }
}

/// One full software gate bootstrap (test_small, m=2 bundle mode) ns/op.
template <class Engine>
Timing bootstrap_ns(Engine& eng, const SecretKeyset& sk, const CloudKeyset& ck) {
  const auto dk = load_device_keyset(eng, ck);
  BootstrapWorkspace<Engine> ws(eng, dk.bk.gadget);
  KeySwitchWorkspace ks_ws;
  Rng rng(31);
  const LweSample x = sk.encrypt_bit(1, rng);
  LweSample out;
  const LweSample* in = &x;
  LweSample* o = &out;
  return time_ns_per_op(
      [&] {
        bootstrap_batch(eng, dk.bk, *dk.ks, sk.params.mu(), &in, &o, 1, ws,
                        ks_ws);
      },
      20);
}

} // namespace

int main() {
  const SimdLevel hw = detect_simd_level();
  const SimdLevel active = active_simd_level();
  // Label rows by the kernel set the dispatcher actually returned, not the
  // requested level: a binary whose vector backend wasn't compiled in falls
  // back to scalar, and mislabeled rows would trip the trend gate.
  const char* active_name = spectral_kernels(active).name;
  std::printf("micro kernels: N=%d, hw=%s, active=%s\n", kRingN,
              simd_level_name(hw), active_name);

  std::vector<Row> rows;
  {
    SimdFftEngine scalar_eng(kRingN, SimdLevel::kScalar);
    simd_kernel_rows(scalar_eng, "scalar", rows);
    bundle_rows(scalar_eng, "scalar", rows);
  }
  if (std::string(active_name) != "scalar") {
    SimdFftEngine simd_eng(kRingN, active);
    simd_kernel_rows(simd_eng, simd_eng.level_name(), rows);
    bundle_rows(simd_eng, simd_eng.level_name(), rows);
  }
  if (std::string(active_name) == "avx512" &&
      simd_level_available(SimdLevel::kAvx2)) {
    // An AVX-512 host runs the avx2 tier too, so CI measures both.
    SimdFftEngine avx2_eng(kRingN, SimdLevel::kAvx2);
    simd_kernel_rows(avx2_eng, avx2_eng.level_name(), rows);
  }
  {
    DoubleFftEngine ref_eng(kRingN);
    reference_rows(ref_eng, rows);
  }

  std::printf("%d trials per row: median ns/op [q1, q3]\n", kTrials);
  std::printf("%-24s%-18s%14s%22s\n", "kernel", "path", "ns/op", "[q1, q3]");
  for (const Row& r : rows) {
    std::printf("%-24s%-18s%14.0f    [%7.0f, %7.0f]\n", r.kernel.c_str(),
                r.path.c_str(), r.ns.median, r.ns.q1, r.ns.q3);
  }

  Rng krng(20240601);
  const TfheParams small = TfheParams::test_small();
  const SecretKeyset sk = SecretKeyset::generate(small, krng);
  const CloudKeyset ck = make_cloud_keyset(sk, /*unroll_m=*/2, krng);

  // Keyswitch: seed AoS baseline vs SoA per-sample vs batch-amortized key
  // streaming, at the same test_small key the bootstrap rows use.
  std::vector<KsRow> ks_rows;
  keyswitch_rows(ck, active_name, ks_rows);
  std::printf("\nkeyswitch (test_small, key %.1f MB):\n",
              static_cast<double>(ck.ks.key_bytes()) / (1024.0 * 1024.0));
  std::printf("%-18s%-14s%16s%12s%22s\n", "path", "mode", "ns/sample", "GB/s",
              "[q1, q3]");
  for (const KsRow& r : ks_rows) {
    std::printf("%-18s%-14s%16.0f%12.2f    [%7.0f, %7.0f]\n", r.path.c_str(),
                r.mode.c_str(), r.ns.median, r.eff_gb_s, r.ns.q1, r.ns.q3);
  }

  // Whole-gate bootstraps at the unit-test parameters (m = 2 bundle mode),
  // the latency the batch executor pays per gate.
  std::printf("\nbootstrap (test_small, m=2):\n");
  struct BootRow {
    std::string path;
    Timing ns;
  };
  std::vector<BootRow> boots;
  {
    SimdFftEngine eng(small.ring.n_ring, SimdLevel::kScalar);
    boots.push_back({"scalar", bootstrap_ns(eng, sk, ck)});
  }
  if (std::string(active_name) != "scalar") {
    SimdFftEngine eng(small.ring.n_ring, active);
    boots.push_back({eng.level_name(), bootstrap_ns(eng, sk, ck)});
  }
  {
    DoubleFftEngine eng(small.ring.n_ring);
    boots.push_back({"reference_double", bootstrap_ns(eng, sk, ck)});
  }
  for (const BootRow& b : boots) {
    std::printf("%-18s%14.0f ns/op  (%.2f ms)  [%.0f, %.0f]\n", b.path.c_str(),
                b.ns.median, b.ns.median * 1e-6, b.ns.q1, b.ns.q3);
  }

  std::FILE* jf = std::fopen("BENCH_micro_kernels.json", "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_micro_kernels.json\n");
    return 0;
  }
  JsonWriter j(jf);
  j.begin_object();
  j.field("ring_n", kRingN);
  j.field("simd_hw", simd_level_name(hw));
  j.field("simd_active", active_name);
  bench::write_host_header(j);
  j.name("kernels");
  j.begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.field("kernel", r.kernel.c_str());
    j.field("path", r.path.c_str());
    write_timing(j, "ns_op", r.ns);
    j.end_object();
  }
  j.end_array();
  j.name("keyswitch");
  j.begin_array();
  for (const KsRow& r : ks_rows) {
    j.begin_object();
    j.field("path", r.path.c_str());
    j.field("mode", r.mode.c_str());
    j.field("params", "test_small");
    write_timing(j, "ns_per_sample", r.ns);
    j.field("eff_gb_s", r.eff_gb_s);
    j.end_object();
  }
  j.end_array();
  j.name("bootstrap");
  j.begin_array();
  for (const BootRow& b : boots) {
    j.begin_object();
    j.field("path", b.path.c_str());
    j.field("params", "test_small");
    j.field("unroll_m", 2);
    write_timing(j, "ns_op", b.ns);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::fclose(jf);
  std::printf("\nwrote BENCH_micro_kernels.json\n");
  return 0;
}
