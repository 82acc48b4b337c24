// Projection bench: encrypted-circuit runtimes on MATCHA vs the baselines --
// the paper's motivation quantified (a TFHE RISC-V runs at ~1 Hz on a CPU;
// what does MATCHA buy at the circuit level?).
#include <cstdio>

#include "platform/platforms.h"
#include "sim/chip_sim.h"

int main() {
  using namespace matcha;
  const TfheParams p = TfheParams::security110();

  struct Workload {
    const char* name;
    sim::GateDag dag;
  } workloads[] = {
      {"8-bit ripple adder", sim::ripple_adder_netlist(8)},
      {"32-bit ripple adder", sim::ripple_adder_netlist(32)},
      {"8-bit array multiplier", sim::array_multiplier_netlist(8)},
  };

  std::printf("Circuit-level projection (m = 3 on MATCHA; serial gates on "
              "CPU/GPU)\n");
  std::printf("%-24s %8s %8s %12s %12s %12s %10s\n", "circuit", "gates",
              "depth", "MATCHA(ms)", "CPU(ms)", "GPU(ms)", "par.eff");
  const double cpu_gate = platform::cpu_eval(p, 2).latency_ms;
  const double gpu_gate = platform::gpu_eval(p, 4).latency_ms;
  for (auto& w : workloads) {
    const auto r = sim::simulate_circuit(p, 3, w.dag);
    std::printf("%-24s %8d %8d %12.2f %12.1f %12.2f %10.2f\n", w.name, r.gates,
                r.critical_path, r.time_ms, r.gates * cpu_gate,
                r.gates * gpu_gate, r.effective_parallelism);
  }
  std::printf("\n(1 Hz TFHE-CPU reference: ~%d gates/cycle at 13 ms/gate "
              "serial; MATCHA's pipelines + gate-level parallelism close "
              "most of that gap.)\n",
              static_cast<int>(1.0 / 13.1e-3));
  return 0;
}
