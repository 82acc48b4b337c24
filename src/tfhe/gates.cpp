#include "tfhe/gates.h"

namespace matcha {

const char* gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::kNand: return "NAND";
    case GateKind::kAnd: return "AND";
    case GateKind::kOr: return "OR";
    case GateKind::kNor: return "NOR";
    case GateKind::kXor: return "XOR";
    case GateKind::kXnor: return "XNOR";
    case GateKind::kNot: return "NOT";
    case GateKind::kMux: return "MUX";
    case GateKind::kLut: return "LUT";
    case GateKind::kLutOut: return "LUTOUT";
    case GateKind::kFreeOr: return "FREEOR";
  }
  return "?";
}

} // namespace matcha
