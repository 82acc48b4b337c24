// The benchmark's workloads. Each is a closed loop with one client: the next
// request is sent only after the previous one has been checked.
#pragma once

#include <cassert>

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/circuit_builder.h"
#include "report.h"
#include "tracer.h"

namespace perfbench {

enum class CircuitKind {
  kMul8Cmp, ///< 8-bit product (low 8 bits), x > y, x == y
  kAddCmp,  ///< 9-bit sum x + y, x > y
};

/// A recorded circuit over two 8-bit operands, its output wires (recording
/// handles, in oracle order) and the plaintext oracle for them.
struct Circuit {
  static constexpr int kWidth = 8;
  CircuitKind kind = CircuitKind::kMul8Cmp;
  matcha::exec::CircuitBuilder builder;
  std::vector<matcha::exec::Wire> outputs;

  explicit Circuit(CircuitKind k);
  /// Expected value of every output bit for operands (x, y).
  std::vector<int> oracle(uint64_t x, uint64_t y) const;
};

struct SoftwareWorkload {
  CircuitKind circuit;
  int unroll_m;
  int batch;   ///< independent circuit items per request
  int threads; ///< executor worker threads
};

/// keygen -> keyset over a byte stream -> device load -> compile ->
/// BatchExecutor, then encrypt -> run_batch -> decrypt + check per request.
Report run_software(const SoftwareWorkload& w, const Options& opt, Tracer& tr);

/// One 4-chip simulate_circuit_multichip of the compiled mul8cmp circuit per
/// request (host time); never executes ciphertexts.
Report run_simulator(const Options& opt, Tracer& tr);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

} // namespace perfbench
