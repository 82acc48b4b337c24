#include <gtest/gtest.h>

#include <sstream>

#include "io/serialize.h"
#include "test_util.h"

namespace matcha::io {
namespace {

using test::shared_keys;

TEST(Io, ParamsRoundTrip) {
  const TfheParams p = TfheParams::security110();
  std::stringstream ss;
  write_params(ss, p);
  const TfheParams q = try_read_params(ss).value();
  EXPECT_EQ(q.lwe.n, p.lwe.n);
  EXPECT_EQ(q.lwe.sigma, p.lwe.sigma);
  EXPECT_EQ(q.ring.n_ring, p.ring.n_ring);
  EXPECT_EQ(q.gadget.bg_bits, p.gadget.bg_bits);
  EXPECT_EQ(q.gadget.l, p.gadget.l);
  EXPECT_EQ(q.ks.t, p.ks.t);
}

TEST(Io, LweSampleRoundTrip) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(1);
  const LweSample c = K.sk.encrypt_bit(1, rng);
  std::stringstream ss;
  write_lwe_sample(ss, c);
  const LweSample d = try_read_lwe_sample(ss).value();
  EXPECT_EQ(d.a, c.a);
  EXPECT_EQ(d.b, c.b);
  EXPECT_EQ(K.sk.decrypt_bit(d), 1);
}

TEST(Io, TgswRoundTrip) {
  const auto& K = shared_keys();
  const TGswSample& t = K.ck2.bk.groups[0][0];
  std::stringstream ss;
  write_tgsw(ss, t);
  const TGswSample u = try_read_tgsw(ss).value();
  ASSERT_EQ(u.rows_count(), t.rows_count());
  for (int r = 0; r < t.rows_count(); ++r) {
    EXPECT_EQ(u.rows[r].a, t.rows[r].a);
    EXPECT_EQ(u.rows[r].b, t.rows[r].b);
  }
}

TEST(Io, CloudKeysetRoundTripStillBootstraps) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(3);
  std::stringstream ss;
  write_cloud_keyset(ss, K.ck1);
  const CloudKeyset ck = try_read_cloud_keyset(ss).value();
  EXPECT_EQ(ck.bk.unroll_m, 1);
  EXPECT_EQ(ck.bk.total_tgsw(), K.ck1.bk.total_tgsw());
  const auto dk = load_device_keyset(K.deng, ck);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      const LweSample ca = K.sk.encrypt_bit(a, rng);
      const LweSample cb = K.sk.encrypt_bit(b, rng);
      EXPECT_EQ(K.sk.decrypt_bit(ev.gate_nand(ca, cb)), !(a && b));
    }
  }
}

/// Both the key reader and the keyset reader refuse `ck`'s bootstrapping key
/// as out of range (write_* does not validate, so the bytes are well formed).
void expect_bootstrap_key_rejected(const CloudKeyset& ck) {
  std::stringstream bk_bytes;
  write_bootstrap_key(bk_bytes, ck.bk);
  const auto bk = try_read_bootstrap_key(bk_bytes);
  ASSERT_FALSE(bk.ok());
  EXPECT_EQ(bk.status().code(), StatusCode::kOutOfRange)
      << bk.status().to_string();
  std::stringstream ck_bytes;
  write_cloud_keyset(ck_bytes, ck);
  const auto read = try_read_cloud_keyset(ck_bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange)
      << read.status().to_string();
}

TEST(Io, BootstrapKeyWithShortGroupIsRejected) {
  // Blind rotation reads all 2^m - 1 subset TGSWs of every group; a missing
  // one would send a SIMD bootstrap one arena block past the key.
  CloudKeyset ck = shared_keys().ck2;
  ck.bk.groups.back().pop_back();
  expect_bootstrap_key_rejected(ck);
}

TEST(Io, BootstrapKeyWithOversizedTailGroupIsRejected) {
  // n = 3 at m = 2: the tail group covers one secret bit, so it holds
  // exactly one TGSW, not the 2^m - 1 = 3 of a full group.
  TfheParams p = TfheParams::test_small();
  p.lwe.n = 3;
  Rng rng = test::test_rng(8);
  const SecretKeyset sk = SecretKeyset::generate(p, rng);
  CloudKeyset ck = make_cloud_keyset(sk, 2, rng);
  ASSERT_EQ(ck.bk.groups.size(), 2u);
  ASSERT_EQ(ck.bk.groups[1].size(), 1u);
  ck.bk.groups[1] = ck.bk.groups[0];
  expect_bootstrap_key_rejected(ck);
}

TEST(Io, CloudKeysetWithRingKOtherThanOneIsRejected) {
  // The library fixes k = 1 (tfhe/params.h). A keyset claiming k = 2 whose
  // keyswitch key comes from a 2N-dimension key would make every key switch
  // read N coefficients past the N-dimension samples blind rotation
  // extracts.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(9);
  CloudKeyset ck = K.ck1;
  ck.params.ring.k = 2;
  const LweKey wide = LweKey::generate(
      LweParams{.n = 2 * K.params.ring.n_ring, .sigma = K.params.lwe.sigma},
      rng);
  ck.ks = make_keyswitch_key(wide, K.sk.lwe, K.params.ks, rng);
  ASSERT_EQ(ck.ks.n_in, 2 * ck.params.ring.n_ring);
  std::stringstream ss;
  write_cloud_keyset(ss, ck);
  const auto read = try_read_cloud_keyset(ss);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange)
      << read.status().to_string();
}

TEST(Io, GadgetTheLibraryCannotRunIsRejected) {
  // l digits of bg_bits each must fit the 32-bit torus: at bg_bits = 10,
  // l = 4 every digit shift 32 - (j+1) * bg_bits past the third goes
  // negative. A keyset whose rows match that gadget is well formed, so only
  // the gadget check can refuse it -- alone, or in the keyset's parameters.
  const auto& K = shared_keys();
  const GadgetParams wide{.bg_bits = 10, .l = 4};
  CloudKeyset ck = K.ck1;
  ck.params.gadget = wide;
  ck.bk.gadget = wide;
  for (auto& group : ck.bk.groups) {
    for (TGswSample& tgsw : group) {
      while (tgsw.rows_count() < 2 * wide.l) tgsw.rows.push_back(tgsw.rows[0]);
    }
  }
  std::stringstream ps;
  write_params(ps, ck.params);
  const auto params = try_read_params(ps);
  ASSERT_FALSE(params.ok());
  EXPECT_EQ(params.status().code(), StatusCode::kOutOfRange)
      << params.status().to_string();
  std::stringstream ks;
  write_cloud_keyset(ks, ck);
  const auto read = try_read_cloud_keyset(ks);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange)
      << read.status().to_string();

  // A runnable gadget in the key that differs from the parameter set's: the
  // step would decompose with one and read rows shaped by the other.
  CloudKeyset other = K.ck1;
  other.bk.gadget.bg_bits = K.params.gadget.bg_bits - 1;
  std::stringstream os;
  write_cloud_keyset(os, other);
  const auto mismatched = try_read_cloud_keyset(os);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kOutOfRange)
      << mismatched.status().to_string();
}

TEST(Io, BadMagicIsInvalidArgument) {
  std::stringstream ss;
  ss.write("JUNKJUNKJUNK", 12);
  EXPECT_EQ(try_read_lwe_sample(ss).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Io, TruncatedStreamIsDataLoss) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(4);
  const LweSample c = K.sk.encrypt_bit(0, rng);
  std::stringstream ss;
  write_lwe_sample(ss, c);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_EQ(try_read_lwe_sample(cut).status().code(), StatusCode::kDataLoss);
}

TEST(Io, WrongObjectTypeIsInvalidArgument) {
  const TfheParams p = TfheParams::test_small();
  std::stringstream ss;
  write_params(ss, p);
  EXPECT_EQ(try_read_lwe_sample(ss).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ fuzz sweeps --
// Exhaustive adversarial-input sweeps over the wire format: every single-bit
// corruption and every truncation point must come back as a clean non-OK
// Status from the try_read_* entry points -- no crash, no UB, no absurd
// allocation, and never a silently-wrong object (the trailing payload
// checksum makes any byte change detectable).

/// Every prefix of `bytes` (stride 1 up to `limit` positions, then the tail
/// sampled) fails `reader` cleanly.
template <class Reader>
void expect_all_truncations_fail(const std::string& bytes, Reader reader,
                                 size_t stride = 1) {
  for (size_t cut = 0; cut < bytes.size(); cut += stride) {
    std::stringstream ss(bytes.substr(0, cut));
    const auto r = reader(ss);
    EXPECT_FALSE(r.ok()) << "truncation at byte " << cut << " parsed";
    if (r.ok()) return; // one detailed failure is enough
    EXPECT_FALSE(r.status().message().empty());
  }
}

/// Every single-bit flip in `bytes` (stride bytes apart) fails `reader`.
template <class Reader>
void expect_all_bitflips_fail(const std::string& bytes, Reader reader,
                              size_t stride = 1) {
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (pos % 8)));
    std::stringstream ss(mutated);
    const auto r = reader(ss);
    EXPECT_FALSE(r.ok()) << "bit flip at byte " << pos << " went undetected";
    if (r.ok()) return;
  }
}

TEST(IoFuzz, ParamsSurviveEveryTruncationAndBitFlip) {
  std::stringstream ss;
  write_params(ss, TfheParams::test_small());
  const std::string bytes = ss.str();
  const auto reader = [](std::istream& is) { return try_read_params(is); };
  expect_all_truncations_fail(bytes, reader);
  expect_all_bitflips_fail(bytes, reader);
}

TEST(IoFuzz, LweSampleSurvivesEveryTruncationAndBitFlip) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(5);
  std::stringstream ss;
  write_lwe_sample(ss, K.sk.encrypt_bit(1, rng));
  const std::string bytes = ss.str();
  const auto reader = [](std::istream& is) { return try_read_lwe_sample(is); };
  expect_all_truncations_fail(bytes, reader);
  expect_all_bitflips_fail(bytes, reader);
}

TEST(IoFuzz, TgswSurvivesSampledTruncationAndEveryHeaderByte) {
  const auto& K = shared_keys();
  std::stringstream ss;
  write_tgsw(ss, K.ck2.bk.groups[0][0]);
  const std::string bytes = ss.str();
  const auto reader = [](std::istream& is) { return try_read_tgsw(is); };
  // Dense sweep through the header region, sampled through the payload and
  // dense again over the trailing checksum.
  expect_all_truncations_fail(bytes.substr(0, 64), reader);
  expect_all_truncations_fail(bytes, reader, 97);
  expect_all_bitflips_fail(bytes, reader, 101);
  for (size_t cut = bytes.size() - 9; cut < bytes.size(); ++cut) {
    std::stringstream cut_ss(bytes.substr(0, cut));
    EXPECT_FALSE(try_read_tgsw(cut_ss).ok()) << "checksum cut " << cut;
  }
}

TEST(IoFuzz, CloudKeysetSurvivesSampledCorruption) {
  const auto& K = shared_keys();
  std::stringstream ss;
  write_cloud_keyset(ss, K.ck1);
  const std::string bytes = ss.str();
  const auto reader = [](std::istream& is) { return try_read_cloud_keyset(is); };
  expect_all_truncations_fail(bytes.substr(0, 64), reader);
  expect_all_truncations_fail(bytes, reader, bytes.size() / 173 + 1);
  expect_all_bitflips_fail(bytes, reader, bytes.size() / 131 + 1);
}

TEST(IoFuzz, HeaderFieldMutationsAreRejectedWithStructuredCodes) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(6);
  std::stringstream ss;
  write_lwe_sample(ss, K.sk.encrypt_bit(0, rng));
  const std::string bytes = ss.str();

  // Byte 0..3: magic -> kInvalidArgument (wrong object / garbage).
  std::string m = bytes;
  m[0] = 'X';
  std::stringstream s1(m);
  EXPECT_EQ(try_read_lwe_sample(s1).status().code(),
            StatusCode::kInvalidArgument);

  // Byte 4..7: format version -> kFailedPrecondition (version skew).
  m = bytes;
  m[4] = static_cast<char>(m[4] ^ 0x40);
  std::stringstream s2(m);
  EXPECT_EQ(try_read_lwe_sample(s2).status().code(),
            StatusCode::kFailedPrecondition);

  // An absurd vector length must bounce off the bounds check, not allocate.
  m = bytes;
  m[11] = static_cast<char>(0x7F); // high byte of the little-endian length
  std::stringstream s3(m);
  const auto r = try_read_lwe_sample(s3);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kOutOfRange ||
              r.status().code() == StatusCode::kDataLoss)
      << r.status().to_string();
}

} // namespace
} // namespace matcha::io
