// The MATCHA chip configuration (paper Fig. 7 + Table 2) and the per-component
// power/area roll-up that regenerates Table 2.
#pragma once

#include <string>
#include <vector>

#include "hw/cost_model.h"

namespace matcha::hw {

/// Structural description of the accelerator (defaults = the paper's design).
struct MatchaConfig {
  Process process;
  int pipelines = 8;            ///< TGSW cluster + EP core pairs
  // TGSW cluster
  int tgsw_mults = 16;          ///< 32-bit multiply-add units per cluster
  int tgsw_simd = 8;            ///< lanes per multiplier (calibrated; gives the
                                ///< cluster its bundle throughput)
  double tgsw_regfile_kb = 16;
  int tgsw_regfile_banks = 2;
  // EP core
  int ep_ifft_cores = 4;
  int ep_fft_cores = 1;
  int butterflies_per_fft_core = 128;
  int ep_mults = 4;             ///< 32-bit units manipulating TGSW ciphertexts
  int ep_adders = 4;
  double ep_regfile_kb = 256;
  int ep_regfile_banks = 8;
  // Polynomial unit
  int poly_alus = 32;
  int poly_simd = 64; ///< bit-sliced lanes per ALU (calibrated)
  double poly_regfile_kb = 8;
  int poly_regfile_banks = 2;
  // Memory system
  double spm_kb = 4096;
  int spm_banks = 32;
  int xbar_bits = 256;
  double hbm_gbps = 640.0;      ///< HBM2 bandwidth, GB/s
  // Multi-chip system (sim/gate_dag.h multi-chip scheduling): bandwidth of
  // the shared chip-to-chip link ciphertexts cross between shards. An
  // HBM-like serial link, an order of magnitude slimmer than local HBM.
  double interchip_gbps = 64.0;
};

/// One row of Table 2.
struct ComponentCost {
  std::string name;
  std::string spec;
  double power_w = 0;
  double area_mm2 = 0;
};

struct DesignCost {
  std::vector<ComponentCost> rows;
  double total_power_w = 0;
  double total_area_mm2 = 0;
};

/// Roll up the component costs (regenerates Table 2).
DesignCost compute_design_cost(const MatchaConfig& cfg = {});

/// Per-component building blocks, exposed for the simulator's
/// activity-based energy model.
double tgsw_cluster_power_w(const MatchaConfig& cfg);
double ep_core_power_w(const MatchaConfig& cfg);
double poly_unit_power_w(const MatchaConfig& cfg);
double uncore_power_w(const MatchaConfig& cfg); ///< SPM + crossbars + memctrl

} // namespace matcha::hw
