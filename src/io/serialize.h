// Binary serialization of parameters, ciphertexts, and cloud key material,
// so a client can ship cloud keysets to a server/accelerator and ciphertexts
// back and forth. Secret keys never leave the client process, so they have
// no wire format; the keyswitch key travels only inside a cloud keyset.
// Format v3: little-endian, versioned magic header per object, and a
// trailing FNV-1a-64 payload checksum per object so a garbled byte
// anywhere surfaces as DATA_LOSS instead of a silently wrong key. Spectral
// device keys are intentionally NOT serialized -- they are an engine-specific
// cache regenerated at load time (load_device_keyset).
//
// Failure model (DESIGN.md "Failure model and fault-injection contract"):
// every field a reader decodes is bounds-checked BEFORE it sizes an
// allocation or indexes a buffer, so a hostile blob can provoke a structured
// error but never UB or an absurd allocation. The try_read_* entry points
// are the only readers; they return StatusOr and never throw on malformed
// input:
//   kInvalidArgument     bad magic (not this object / not our format)
//   kFailedPrecondition  version skew
//   kDataLoss            truncation or checksum mismatch
//   kOutOfRange          a decoded dimension fails its sanity bound
// Write failures throw StatusError (a std::runtime_error) on stream errors.
#pragma once

#include <iosfwd>

#include "bku/unrolled_key.h"
#include "common/status.h"
#include "tfhe/keyset.h"

namespace matcha::io {

void write_params(std::ostream& os, const TfheParams& p);
StatusOr<TfheParams> try_read_params(std::istream& is);

void write_lwe_sample(std::ostream& os, const LweSample& c);
StatusOr<LweSample> try_read_lwe_sample(std::istream& is);

void write_tgsw(std::ostream& os, const TGswSample& s);
StatusOr<TGswSample> try_read_tgsw(std::istream& is);

void write_bootstrap_key(std::ostream& os, const UnrolledBootstrapKey& k);
StatusOr<UnrolledBootstrapKey> try_read_bootstrap_key(std::istream& is);

void write_cloud_keyset(std::ostream& os, const CloudKeyset& ck);
StatusOr<CloudKeyset> try_read_cloud_keyset(std::istream& is);

} // namespace matcha::io
