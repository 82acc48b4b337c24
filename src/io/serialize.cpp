#include "io/serialize.h"

#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/fault_injection.h"

namespace matcha::io {

namespace {

// v2: KeySwitchKey switched from an LweSample table (with placeholder rows)
// to the planar SoA arenas of tfhe/keyswitch.h -- t_used plus two raw
// Torus32 planes on the wire, a straight memcpy of the in-memory layout.
// v3: every object gains a trailing FNV-1a-64 checksum of the bytes it wrote
// itself (nested objects are self-checked), and readers bounds-check every
// decoded dimension before it sizes an allocation or indexes a buffer.
constexpr uint32_t kVersion = 3;

// Sanity bounds on decoded dimensions. Far above every shipped parameter
// set, far below anything that could overflow a size computation or force
// an absurd allocation on behalf of a hostile blob.
constexpr int64_t kMaxLweDim = 1 << 22;
constexpr int64_t kMaxRingN = 1 << 20;
constexpr int64_t kMaxRingK = 64;
constexpr int64_t kMaxGadgetL = 64;
constexpr int64_t kMaxUnroll = 8;
constexpr int64_t kMaxTgswRows = 1 << 16;
constexpr uint64_t kMaxVecElems = 1ULL << 28;

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

uint64_t fnv_update(uint64_t h, const void* p, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * kFnvPrime;
  return h;
}

[[noreturn]] void fail(Status st) { throw StatusError(std::move(st)); }

/// Bounds check for a decoded dimension: structured failure, never UB.
void check_range(int64_t v, int64_t lo, int64_t hi, const char* what) {
  if (v < lo || v > hi) {
    fail(out_of_range_status(std::string("matcha::io: ") + what + " = " +
                             std::to_string(v) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]"));
  }
}

void check_sigma(double v, const char* what) {
  if (!std::isfinite(v) || v < 0 || v >= 0.5) {
    fail(out_of_range_status(std::string("matcha::io: ") + what +
                             " is not a plausible noise stddev"));
  }
}

void check_pow2(int64_t v, const char* what) {
  if (v < 2 || (v & (v - 1)) != 0) {
    fail(out_of_range_status(std::string("matcha::io: ") + what +
                             " must be a power of two >= 2"));
  }
}

/// Byte sink for one object: hashes everything written through it so the
/// object can end with finish() -- the payload checksum.
struct Sink {
  std::ostream& os;
  uint64_t h = kFnvOffset;

  void raw(const void* p, size_t n) {
    h = fnv_update(h, p, n);
    os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    if (!os) fail(data_loss_status("matcha::io: write failed"));
  }

  template <class T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(v));
  }

  template <class T, class A>
  void put_vec(const std::vector<T, A>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<uint64_t>(v.size()));
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }

  void header(uint32_t magic) {
    put(magic);
    put(kVersion);
  }

  /// Trailing checksum of everything this Sink wrote. Not itself hashed.
  void finish() {
    const uint64_t sum = h;
    os.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
    if (!os) fail(data_loss_status("matcha::io: write failed"));
  }
};

/// Byte source for one object, mirroring Sink: hashes everything read so
/// verify_checksum() can compare against the stored trailer. Also hosts the
/// io fault-injection sites -- both armed-only, since a fired fault here is
/// surfaced to the caller, not masked.
struct Source {
  std::istream& is;
  uint64_t h = kFnvOffset;

  void raw(void* p, size_t n) {
    if (fault::should_fire(fault::kSiteIoTruncate, fault::Scope::kArmedOnly)) {
      throw fault::FaultInjected(
          fault::kSiteIoTruncate,
          data_loss_status("matcha::io: read failed / truncated (injected)"));
    }
    is.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!is) fail(data_loss_status("matcha::io: read failed / truncated"));
    if (n > 0 &&
        fault::should_fire(fault::kSiteIoGarble, fault::Scope::kArmedOnly)) {
      // Model a garbled stream: the flipped bit is hashed like any other
      // payload byte, so the object's stored checksum cannot match.
      static_cast<unsigned char*>(p)[0] ^= 0x10;
    }
    h = fnv_update(h, p, n);
  }

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    raw(&v, sizeof(v));
    return v;
  }

  void check_header(uint32_t magic, const char* what) {
    if (get<uint32_t>() != magic) {
      fail(invalid_argument_status(
          std::string("matcha::io: bad magic for ") + what));
    }
    if (get<uint32_t>() != kVersion) {
      fail(failed_precondition_status(
          std::string("matcha::io: version skew for ") + what));
    }
  }

  /// Read into an existing vector (any allocator -- the keyswitch arenas are
  /// AlignedVectors and must keep their 64B-aligned storage). The declared
  /// length is capped before the resize; callers with an exact expected
  /// length check it after the read.
  template <class T, class A>
  void get_vec_into(std::vector<T, A>& v, uint64_t max_elems,
                    const char* what) {
    const uint64_t n = get<uint64_t>();
    if (n > max_elems) {
      fail(out_of_range_status(std::string("matcha::io: ") + what +
                               " length " + std::to_string(n) +
                               " exceeds cap " + std::to_string(max_elems)));
    }
    v.resize(n);
    if (n) raw(v.data(), n * sizeof(T));
  }

  template <class T>
  std::vector<T> get_vec(uint64_t max_elems, const char* what) {
    std::vector<T> v;
    get_vec_into(v, max_elems, what);
    return v;
  }

  /// Compare the running hash against the stored trailer (read unhashed).
  void verify_checksum(const char* what) {
    const uint64_t want = h;
    uint64_t stored;
    is.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!is) fail(data_loss_status("matcha::io: read failed / truncated"));
    if (stored != want) {
      fail(data_loss_status(std::string("matcha::io: checksum mismatch for ") +
                            what + " (corrupted or garbled stream)"));
    }
  }
};

constexpr uint32_t kMagicParams = 0x4D504152; // "MPAR"
constexpr uint32_t kMagicLwe = 0x4D4C5745;    // "MLWE"
constexpr uint32_t kMagicTgsw = 0x4D475357;
constexpr uint32_t kMagicKs = 0x4D4B5357;
constexpr uint32_t kMagicBk = 0x4D424B31;
constexpr uint32_t kMagicCloud = 0x4D434B53;

void put_tlwe(Sink& s, const TLweSample& t) {
  s.put_vec(t.a.coeffs);
  s.put_vec(t.b.coeffs);
}

/// Read one TLWE row. n_ring > 0: polynomials must have exactly that many
/// coeffs; n_ring < 0: only the global cap applies (a and b must still agree).
TLweSample get_tlwe(Source& src, int64_t n_ring) {
  const uint64_t cap =
      n_ring > 0 ? static_cast<uint64_t>(n_ring) : static_cast<uint64_t>(kMaxRingN);
  TLweSample t;
  src.get_vec_into(t.a.coeffs, cap, "TLwe a");
  src.get_vec_into(t.b.coeffs, cap, "TLwe b");
  if (t.a.coeffs.size() != t.b.coeffs.size() ||
      (n_ring > 0 && t.a.coeffs.size() != static_cast<size_t>(n_ring))) {
    fail(out_of_range_status(
        "matcha::io: TLwe polynomial length disagrees with its ring"));
  }
  return t;
}

TfheParams read_params_impl(std::istream& is) {
  Source src{is};
  src.check_header(kMagicParams, "TfheParams");
  TfheParams p;
  p.lwe.n = src.get<int32_t>();
  p.lwe.sigma = src.get<double>();
  p.ring.n_ring = src.get<int32_t>();
  p.ring.k = src.get<int32_t>();
  p.ring.sigma = src.get<double>();
  p.gadget.bg_bits = src.get<int32_t>();
  p.gadget.l = src.get<int32_t>();
  p.ks.basebit = src.get<int32_t>();
  p.ks.t = src.get<int32_t>();
  p.ks.sigma = src.get<double>();
  src.verify_checksum("TfheParams");
  check_range(p.lwe.n, 1, kMaxLweDim, "TfheParams.lwe.n");
  check_sigma(p.lwe.sigma, "TfheParams.lwe.sigma");
  check_range(p.ring.n_ring, 2, kMaxRingN, "TfheParams.ring.n_ring");
  check_pow2(p.ring.n_ring, "TfheParams.ring.n_ring");
  check_range(p.ring.k, 1, kMaxRingK, "TfheParams.ring.k");
  check_sigma(p.ring.sigma, "TfheParams.ring.sigma");
  check_range(p.gadget.bg_bits, 1, 31, "TfheParams.gadget.bg_bits");
  check_range(p.gadget.l, 1, kMaxGadgetL, "TfheParams.gadget.l");
  check_range(p.ks.basebit, 1, 31, "TfheParams.ks.basebit");
  check_range(p.ks.t, 0, 64, "TfheParams.ks.t");
  check_sigma(p.ks.sigma, "TfheParams.ks.sigma");
  return p;
}

void write_params_impl(Sink& s, const TfheParams& p) {
  s.header(kMagicParams);
  s.put(static_cast<int32_t>(p.lwe.n));
  s.put(p.lwe.sigma);
  s.put(static_cast<int32_t>(p.ring.n_ring));
  s.put(static_cast<int32_t>(p.ring.k));
  s.put(p.ring.sigma);
  s.put(static_cast<int32_t>(p.gadget.bg_bits));
  s.put(static_cast<int32_t>(p.gadget.l));
  s.put(static_cast<int32_t>(p.ks.basebit));
  s.put(static_cast<int32_t>(p.ks.t));
  s.put(p.ks.sigma);
  s.finish();
}

LweSample read_lwe_sample_impl(std::istream& is) {
  Source src{is};
  src.check_header(kMagicLwe, "LweSample");
  LweSample c;
  src.get_vec_into(c.a, static_cast<uint64_t>(kMaxLweDim), "LweSample.a");
  c.b = src.get<Torus32>();
  src.verify_checksum("LweSample");
  return c;
}

/// TGSW rows with a caller-imposed ring size (-1: infer from row 0, bounded).
TGswSample read_tgsw_impl(std::istream& is, int64_t n_ring = -1) {
  Source src{is};
  src.check_header(kMagicTgsw, "TGswSample");
  TGswSample s;
  const uint32_t rows = src.get<uint32_t>();
  check_range(rows, 0, kMaxTgswRows, "TGswSample.rows");
  s.rows.reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    if (i == 0 && n_ring < 0) {
      // Standalone read: row 0 sets the ring, bounded like any other dim.
      TLweSample first = get_tlwe(src, -1);
      check_range(first.a.size(), 2, kMaxRingN, "TGswSample ring");
      check_pow2(first.a.size(), "TGswSample ring");
      n_ring = first.a.size();
      s.rows.push_back(std::move(first));
      continue;
    }
    s.rows.push_back(get_tlwe(src, n_ring));
  }
  src.verify_checksum("TGswSample");
  return s;
}

KeySwitchKey read_keyswitch_key_impl(std::istream& is) {
  Source src{is};
  src.check_header(kMagicKs, "KeySwitchKey");
  KeySwitchKey k;
  k.params.basebit = src.get<int32_t>();
  k.params.t = src.get<int32_t>();
  k.params.sigma = src.get<double>();
  k.n_in = src.get<int32_t>();
  k.n_out = src.get<int32_t>();
  k.t_used = src.get<int32_t>();
  check_range(k.params.basebit, 1, 31, "KeySwitchKey.basebit");
  check_range(k.params.t, 1, 64, "KeySwitchKey.t");
  check_sigma(k.params.sigma, "KeySwitchKey.sigma");
  check_range(k.n_in, 1, kMaxLweDim, "KeySwitchKey.n_in");
  check_range(k.n_out, 1, kMaxLweDim, "KeySwitchKey.n_out");
  check_range(k.t_used, 0, k.params.t, "KeySwitchKey.t_used");
  // Exact 64-bit arena arithmetic: every factor is already range-checked, so
  // the products below cannot overflow (2^22 * 64 * 2^31 < 2^59), and the
  // element cap rejects hostile sizes before any allocation.
  const uint64_t rows = static_cast<uint64_t>(k.n_in) *
                        static_cast<uint64_t>(k.t_used) *
                        (static_cast<uint64_t>(k.params.base()) - 1);
  if (rows > kMaxVecElems ||
      rows * static_cast<uint64_t>(k.n_out) > kMaxVecElems) {
    fail(out_of_range_status(
        "matcha::io: KeySwitchKey arena dimensions exceed cap"));
  }
  src.get_vec_into(k.a_plane, kMaxVecElems, "KeySwitchKey.a_plane");
  src.get_vec_into(k.b_plane, kMaxVecElems, "KeySwitchKey.b_plane");
  src.verify_checksum("KeySwitchKey");
  if (k.b_plane.size() != rows ||
      k.a_plane.size() != rows * static_cast<uint64_t>(k.n_out)) {
    fail(out_of_range_status(
        "matcha::io: KeySwitchKey arena size disagrees with its dimensions"));
  }
  return k;
}

void write_keyswitch_key(std::ostream& os, const KeySwitchKey& k) {
  Sink s{os};
  s.header(kMagicKs);
  s.put(static_cast<int32_t>(k.params.basebit));
  s.put(static_cast<int32_t>(k.params.t));
  s.put(k.params.sigma);
  s.put(static_cast<int32_t>(k.n_in));
  s.put(static_cast<int32_t>(k.n_out));
  s.put(static_cast<int32_t>(k.t_used));
  s.put_vec(k.a_plane);
  s.put_vec(k.b_plane);
  s.finish();
}

UnrolledBootstrapKey read_bootstrap_key_impl(std::istream& is) {
  Source src{is};
  src.check_header(kMagicBk, "UnrolledBootstrapKey");
  UnrolledBootstrapKey k;
  k.unroll_m = src.get<int32_t>();
  k.n_lwe = src.get<int32_t>();
  k.ring.n_ring = src.get<int32_t>();
  k.ring.k = src.get<int32_t>();
  k.ring.sigma = src.get<double>();
  k.gadget.bg_bits = src.get<int32_t>();
  k.gadget.l = src.get<int32_t>();
  check_range(k.unroll_m, 1, kMaxUnroll, "UnrolledBootstrapKey.unroll_m");
  check_range(k.n_lwe, 1, kMaxLweDim, "UnrolledBootstrapKey.n_lwe");
  check_range(k.ring.n_ring, 2, kMaxRingN, "UnrolledBootstrapKey.n_ring");
  check_pow2(k.ring.n_ring, "UnrolledBootstrapKey.n_ring");
  check_range(k.ring.k, 1, kMaxRingK, "UnrolledBootstrapKey.ring.k");
  check_sigma(k.ring.sigma, "UnrolledBootstrapKey.ring.sigma");
  check_range(k.gadget.bg_bits, 1, 31, "UnrolledBootstrapKey.bg_bits");
  check_range(k.gadget.l, 1, kMaxGadgetL, "UnrolledBootstrapKey.l");
  const uint32_t groups = src.get<uint32_t>();
  // ceil(n_lwe / m) groups; equality keeps the blind-rotation loop bounds
  // honest downstream.
  const int64_t want_groups =
      (static_cast<int64_t>(k.n_lwe) + k.unroll_m - 1) / k.unroll_m;
  if (groups != static_cast<uint64_t>(want_groups)) {
    fail(out_of_range_status(
        "matcha::io: UnrolledBootstrapKey group count disagrees with "
        "n_lwe / unroll_m"));
  }
  // Group g holds exactly 2^{members(g)} - 1 TGSWs (one per nonempty subset
  // of its secret-key bits), each of exactly (k+1)*l rows on this ring.
  const int64_t want_rows =
      (static_cast<int64_t>(k.ring.k) + 1) * k.gadget.l;
  k.groups.resize(groups);
  for (int g = 0; g < k.num_groups(); ++g) {
    auto& grp = k.groups[static_cast<size_t>(g)];
    const uint32_t count = src.get<uint32_t>();
    const int64_t want = (int64_t{1} << k.members(g)) - 1;
    check_range(count, want, want, "UnrolledBootstrapKey group size");
    grp.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      // Nested TGSWs are self-checked objects (the writer used a fresh sink),
      // so their bytes stay out of the outer object's checksum.
      TGswSample t = read_tgsw_impl(is, k.ring.n_ring);
      if (t.rows_count() != want_rows) {
        fail(out_of_range_status(
            "matcha::io: bootstrap-key TGSW row count disagrees with "
            "(k+1)*l"));
      }
      grp.push_back(std::move(t));
    }
  }
  src.verify_checksum("UnrolledBootstrapKey");
  return k;
}

CloudKeyset read_cloud_keyset_impl(std::istream& is) {
  Source src{is};
  src.check_header(kMagicCloud, "CloudKeyset");
  src.verify_checksum("CloudKeyset");
  CloudKeyset ck;
  ck.params = read_params_impl(is);
  ck.bk = read_bootstrap_key_impl(is);
  ck.ks = read_keyswitch_key_impl(is);
  // Cross-object consistency: the keys must belong to the parameter set they
  // arrived with, or downstream kernels index out of bounds.
  if (ck.bk.n_lwe != ck.params.lwe.n ||
      ck.bk.ring.n_ring != ck.params.ring.n_ring ||
      ck.ks.n_out != ck.params.lwe.n ||
      ck.ks.n_in != ck.params.ring.n_ring * ck.params.ring.k) {
    fail(out_of_range_status(
        "matcha::io: CloudKeyset keys disagree with its parameter set"));
  }
  return ck;
}

} // namespace

void write_params(std::ostream& os, const TfheParams& p) {
  Sink s{os};
  write_params_impl(s, p);
}

void write_lwe_sample(std::ostream& os, const LweSample& c) {
  Sink s{os};
  s.header(kMagicLwe);
  s.put_vec(c.a);
  s.put(c.b);
  s.finish();
}

void write_tgsw(std::ostream& os, const TGswSample& t) {
  Sink s{os};
  s.header(kMagicTgsw);
  s.put(static_cast<uint32_t>(t.rows.size()));
  for (const auto& row : t.rows) put_tlwe(s, row);
  s.finish();
}

void write_bootstrap_key(std::ostream& os, const UnrolledBootstrapKey& k) {
  Sink s{os};
  s.header(kMagicBk);
  s.put(static_cast<int32_t>(k.unroll_m));
  s.put(static_cast<int32_t>(k.n_lwe));
  s.put(static_cast<int32_t>(k.ring.n_ring));
  s.put(static_cast<int32_t>(k.ring.k));
  s.put(k.ring.sigma);
  s.put(static_cast<int32_t>(k.gadget.bg_bits));
  s.put(static_cast<int32_t>(k.gadget.l));
  s.put(static_cast<uint32_t>(k.groups.size()));
  for (const auto& grp : k.groups) {
    s.put(static_cast<uint32_t>(grp.size()));
    for (const auto& tgsw : grp) {
      // Nested objects self-check; write through a fresh sink.
      write_tgsw(os, tgsw);
    }
  }
  s.finish();
}

void write_cloud_keyset(std::ostream& os, const CloudKeyset& ck) {
  Sink s{os};
  s.header(kMagicCloud);
  s.finish();
  write_params(os, ck.params);
  write_bootstrap_key(os, ck.bk);
  write_keyswitch_key(os, ck.ks);
}

// The exception-to-Status bridge: the readers report malformed input by
// throwing StatusError, and only these entry points are public.
#define MATCHA_IO_TRY(T, name)                        \
  StatusOr<T> try_##name(std::istream& is) {          \
    try {                                             \
      return name##_impl(is);                         \
    } catch (...) {                                   \
      return status_from_exception(StatusCode::kInternal); \
    }                                                 \
  }

MATCHA_IO_TRY(TfheParams, read_params)
MATCHA_IO_TRY(LweSample, read_lwe_sample)
MATCHA_IO_TRY(TGswSample, read_tgsw)
MATCHA_IO_TRY(UnrolledBootstrapKey, read_bootstrap_key)
MATCHA_IO_TRY(CloudKeyset, read_cloud_keyset)

#undef MATCHA_IO_TRY

} // namespace matcha::io
