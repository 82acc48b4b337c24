// The linear (pre-bootstrap) part of each two-input gate: the combination of
// input ciphertexts whose sign the gate bootstrapping thresholds (paper
// section 2, "Logic"), plus MUX's two branch combos and its post-rotation
// combine. Shared by the eager GateEvaluator and the batch executor so both
// paths compute bit-identical ciphertexts.
#pragma once

#include <cassert>

#include "tfhe/gate_kind.h"
#include "tfhe/lwe.h"

namespace matcha {

/// A known plaintext bit as a trivial (noiseless) ciphertext -- the TFHE
/// library's CONSTANT gate. One encoding shared by the eager evaluator and
/// the batch executor so recorded and immediate mode agree bit-for-bit.
inline LweSample constant_bit(int n_lwe, Torus32 mu, bool value) {
  return LweSample::trivial(n_lwe, value ? mu : static_cast<Torus32>(-mu));
}

/// Pre-bootstrap linear combination for a binary gate over inputs a, b with
/// message amplitude mu (trivial offsets follow the TFHE library).
inline LweSample binary_gate_input(GateKind kind, const LweSample& a,
                                   const LweSample& b, Torus32 mu, int n_lwe) {
  assert(is_binary_gate(kind) && "kNot/kMux have no linear-combo form");
  const auto trivial = [n_lwe](Torus32 m) { return LweSample::trivial(n_lwe, m); };
  switch (kind) {
    case GateKind::kNand:
      return trivial(mu) - a - b;
    case GateKind::kAnd:
      return trivial(static_cast<Torus32>(-mu)) + a + b;
    case GateKind::kOr:
      return trivial(mu) + a + b;
    case GateKind::kNor:
      return trivial(static_cast<Torus32>(-mu)) - a - b;
    case GateKind::kXor: {
      LweSample combo = a + b;
      combo.scale(2);
      combo.b += 2 * mu; // offset +1/4
      return combo;
    }
    case GateKind::kXnor: {
      LweSample combo = a + b;
      combo.scale(-2);
      combo.b -= 2 * mu; // offset -1/4
      return combo;
    }
    case GateKind::kNot:
    case GateKind::kMux:
    case GateKind::kLut:    // LUT combos carry weights; see tfhe/functional.h
    case GateKind::kLutOut: // extracted from the parent LUT's rotation
    case GateKind::kFreeOr: // linear-only disjoint OR; see batch_executor.h
      break;
  }
  return trivial(0); // unreachable for binary kinds
}

/// MUX(sel, c1, c0) = sel ? c1 : c0 -- the TFHE library's construction:
/// u1 = BS(AND(sel, c1)) and u0 = BS(AND(NOT sel, c0)), both gate
/// bootstraps without the key switch (one batch-of-2 flush), then
/// MUX = KS(u1 + u0 + (0, mu)). mux_branch_inputs stages the two branch
/// combos; mux_combine folds u0 and the offset into u1 in place.
inline void mux_branch_inputs(const LweSample& sel, const LweSample& c1,
                              const LweSample& c0, Torus32 mu, int n_lwe,
                              LweSample& and1, LweSample& and0) {
  and1 = binary_gate_input(GateKind::kAnd, sel, c1, mu, n_lwe);
  LweSample nsel = sel;
  nsel.negate();
  and0 = binary_gate_input(GateKind::kAnd, nsel, c0, mu, n_lwe);
}

inline void mux_combine(LweSample& u1, const LweSample& u0, Torus32 mu) {
  u1 += u0;
  u1.b += mu;
}

} // namespace matcha
