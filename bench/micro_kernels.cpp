// Micro-kernel latencies of the spectral bottom layer, scalar vs SIMD:
// forward/inverse negacyclic FFT, pointwise MAC, bundle rotation, external
// product, and a whole software gate bootstrap, with the double-precision
// reference engine alongside. Emits BENCH_micro_kernels.json (JsonWriter)
// so scripts/bench_trend.py can gate software-bootstrap-latency regressions
// commit over commit.
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

double time_ns_per_op(const std::function<void()>& fn, int reps) {
  fn(); // warm caches + page in buffers
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::nano>(dt).count() / reps;
}

struct Row {
  std::string kernel, path;
  double ns_op;
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

/// FFT/MAC/rot/EP rows for one engine. `Engine` only needs the common engine
/// concept; `path` labels the row ("scalar", "avx2", "reference_double", ...).
template <class Engine>
void kernel_rows(Engine& eng, const char* path, std::vector<Row>& out) {
  Rng rng(17);
  const TfheParams params = TfheParams::security110();
  const TorusPolynomial tp = random_torus_poly(rng, kRingN);
  const IntPolynomial ip = random_digit_poly(rng, kRingN);

  typename Engine::Spectral sa, sb;
  typename Engine::SpectralAcc acc;
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
  typename Engine::Spectral dst(eng.spectral_size());
  out.push_back({"rot_scale_add", path, time_ns_per_op([&] {
                   eng.rot_scale_add(dst, sb, 1234);
                 }, 2000)});

  // External product at the paper parameters (Bg=1024, l=3).
  SecretKeyset sk = [&] {
    Rng krng(23);
    return SecretKeyset::generate(params, krng);
  }();
  DoubleFftEngine enc_eng(kRingN);
  SpectralD key_spec;
  enc_eng.to_spectral_int(sk.tlwe.s, key_spec);
  Rng erng(29);
  const TGswSample raw = tgsw_encrypt(enc_eng, sk.tlwe, key_spec,
                                      params.gadget, 1, params.ring.sigma,
                                      erng);
  auto tgsw = tgsw_to_spectral(eng, raw);
  ExternalProductWorkspace<Engine> ws(eng, params.gadget);
  TLweSample ep_acc(kRingN);
  for (auto& c : ep_acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : ep_acc.b.coeffs) c = erng.uniform_torus();
  out.push_back({"external_product", path, time_ns_per_op([&] {
                   external_product(eng, params.gadget, tgsw, ep_acc, ws);
                 }, 200)});
}

/// One whole bundle-mode blind-rotate group step at the paper parameters
/// (N=1024, Bg=1024, l=3, m=2: three subset members, all active), fused
/// rotate-MAC vs the materialized bundle it replaced. Steady-state
/// (st.pristine = false) so neither row gets the first-group skips; the
/// delta is purely eliding the 2l x 2 bundle materialization.
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
  std::vector<TGswSpectral<SimdFftEngine>> group; // the materialized row's key
  for (const TGswSample& raw : cloud.groups[0]) {
    group.push_back(tgsw_to_spectral(eng, raw));
  }

  BootstrapWorkspace<SimdFftEngine> ws(eng, params.gadget);
  const std::vector<int32_t> exponents{37, 911, 948}; // every subset active
  TLweSample acc(kRingN);
  for (auto& c : acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : acc.b.coeffs) c = erng.uniform_torus();

  out.push_back({"bundle_ep_materialized", path, time_ns_per_op([&] {
                   (void)build_bundle(eng, bk.gadget, group, exponents,
                                      ws.bundle);
                   external_product(eng, bk.gadget, ws.bundle, acc, ws.ep);
                 }, 200)});
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
  double ns_per_sample;
  double eff_gb_s; ///< key_bytes / time-per-sample: delivered accumulate BW
};

/// Keyswitch latency rows at test_small: the seed AoS baseline, the SoA
/// per-sample path (scalar + active SIMD), and the batch-amortized path that
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
    const double ns = time_ns_per_op(
        [&] { (void)seed.eval(in[static_cast<size_t>(idx++ % kPool)]); }, 400);
    out.push_back({"seed_aos", "per_sample", ns, eff(ns)});
  }

  const auto per_sample = [&](SimdLevel level, const char* path) {
    LweSample o(ks.n_out);
    int idx = 0;
    const double ns = time_ns_per_op(
        [&] { key_switch_into(ks, in[static_cast<size_t>(idx++ % kPool)], o,
                              level); },
        400);
    out.push_back({path, "per_sample", ns, eff(ns)});
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
    const double ns = time_ns_per_op(
        [&] { key_switch_batch(ks, inp.data(), outp.data(), batch, ws, level); },
        200) / batch;
    out.push_back({path, "batch" + std::to_string(batch), ns, eff(ns)});
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
double bootstrap_ns(Engine& eng, const SecretKeyset& sk, const CloudKeyset& ck) {
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
    kernel_rows(scalar_eng, "scalar", rows);
    bundle_rows(scalar_eng, "scalar", rows);
  }
  if (std::string(active_name) != "scalar") {
    SimdFftEngine simd_eng(kRingN, active);
    kernel_rows(simd_eng, simd_eng.level_name(), rows);
    bundle_rows(simd_eng, simd_eng.level_name(), rows);
  }
  {
    DoubleFftEngine ref_eng(kRingN);
    kernel_rows(ref_eng, "reference_double", rows);
  }

  std::printf("%-24s%-18s%14s\n", "kernel", "path", "ns/op");
  for (const Row& r : rows) {
    std::printf("%-24s%-18s%14.0f\n", r.kernel.c_str(), r.path.c_str(), r.ns_op);
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
  std::printf("%-18s%-14s%16s%12s\n", "path", "mode", "ns/sample", "GB/s");
  for (const KsRow& r : ks_rows) {
    std::printf("%-18s%-14s%16.0f%12.2f\n", r.path.c_str(), r.mode.c_str(),
                r.ns_per_sample, r.eff_gb_s);
  }

  // Whole-gate bootstraps at the unit-test parameters (m = 2 bundle mode),
  // the latency the batch executor pays per gate.
  std::printf("\nbootstrap (test_small, m=2):\n");
  struct BootRow {
    std::string path;
    double ns_op;
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
    std::printf("%-18s%14.0f ns/op  (%.2f ms)\n", b.path.c_str(), b.ns_op,
                b.ns_op * 1e-6);
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
    j.field("ns_op", r.ns_op);
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
    j.field("ns_per_sample", r.ns_per_sample);
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
    j.field("ns_op", b.ns_op);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::fclose(jf);
  std::printf("\nwrote BENCH_micro_kernels.json\n");
  return 0;
}
