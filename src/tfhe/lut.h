// Fused Boolean LUT cones over gate ciphertexts: the math that lets the
// exec-layer optimizer collapse a k-input cone of Boolean gates (k <= 4)
// into ONE programmable bootstrap (tfhe/functional.h).
//
// Encoding grid. Input i encrypts +-1/2^a_i (amplitude log a_i; the stock
// gate encoding is a = 3, mu = 1/8). On grid g (g >= max a_i) a linear
// combination sum_i w_i * x_i plus the trivial offset 1/2^(g+1) has
// noiseless phase (2s+1)/2^(g+1) with s = sum_i w_i * 2^(g-a_i) * sigma_i,
// sigma_i = +-1: an ODD cell of the 2^(g+1)-cell grid. The negacyclic test
// vector (testv[j + N] = -testv[j]) folds the grid into 2^(g-1) free
// half-torus slots plus their negated mirrors; the decode margin per cell is
// 1/2^(g+1). The classic solver is the g = 3 case (16 cells, margin 1/16);
// g = 4 doubles the cell count -- that unlocks AND3-class tables, at the
// price of a halved margin, which the noise budget (noise::lut_weight_budget)
// pays for by capping sum w_i^2 * var_i at 3 instead of 12.
//
// Multi-output. One blind rotation produces the whole rotated accumulator;
// extracting coefficient u * (N / 2^(g-1)) instead of coefficient 0 reads the
// slot u positions further along, i.e. evaluates a SECOND truth table whose
// slot constraints are those of cell (2(s+u)+1). Shifts are whole slots
// (even cells) so every read stays on an odd cell center with the full
// margin. Outputs may carry different amplitudes when their slot sets are
// value-consistent (disjoint in practice, e.g. the full-adder pack).
//
// Legality. A (multi-)table is realizable iff some weight vector and shift
// assignment maps every reachable input combination consistently onto the
// slots: same slot => same (sign, amplitude); the mirror antisymmetry is
// handled by folding signs. Don't-care combinations (dc_mask) are skipped --
// MUX-tree flattening proves some combos unreachable, which is what makes
// its minterm tables solvable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace matcha {

/// Upper bound on fused-cone fan-in: 2^4 combinations is the most the 32
/// phase cells of the finest usable grid can ever tell apart.
inline constexpr int kLutMaxFanIn = 4;

/// Outputs sharing one blind rotation (1 primary + up to 3 extractions).
inline constexpr int kLutMaxOutputs = 4;

/// Grid range: 3 is the stock gate grid, 4 the finest grid whose noise
/// budget is nonzero under the shipped parameter sets.
inline constexpr int kLutMinGridLog = 3;
inline constexpr int kLutMaxGridLog = 4;

/// Legacy grid-3 noise budget, in units of one bootstrap's output variance:
/// sum w_i^2 * var_i must stay <= 12 (stock XOR is 8). The budget the
/// optimizer compiles with; noise::lut_weight_budget reproduces it.
inline constexpr int kLutMaxWeightNorm = 12;

/// Grid-4 default budget (the same failure-rate bound at half the margin).
inline constexpr int kLutGrid4WeightNorm = 3;

/// One secondary output of a multi-output LUT: a different truth table read
/// by extracting the rotated accumulator at slot offset `slot_shift`.
struct LutOutput {
  uint16_t table = 0;
  int8_t slot_shift = 0; ///< in half-torus slots; 0..slots()-1
  int8_t amp_log = 3;    ///< this output encrypts +-1/2^amp_log
};

/// A fused k-input Boolean LUT: truth table(s) plus the integer weights of
/// the pre-bootstrap linear combination sum_i w_i x_i + (0, 1/2^(grid+1)).
struct LutSpec {
  int8_t k = 0;             ///< fan-in, 1..kLutMaxFanIn
  uint16_t table = 0;       ///< primary output bit at index sum_i b_i 2^i
  std::array<int8_t, 4> w{0, 0, 0, 0}; ///< combo weights, nonzero for i < k
  int8_t grid_log = 3;      ///< phase grid: 2^(grid_log+1) cells
  std::array<int8_t, 4> in_amp_log{3, 3, 3, 3}; ///< input amplitudes
  int8_t out_amp_log = 3;   ///< primary output amplitude
  int8_t n_out = 1;         ///< total outputs, 1..kLutMaxOutputs
  uint16_t dc_mask = 0;     ///< input combos proven unreachable (don't-care)
  std::array<LutOutput, kLutMaxOutputs - 1> extra{}; ///< outputs 1..n_out-1

  /// Free half-torus slots of the test vector on this grid.
  int slots() const { return 1 << (grid_log - 1); }
  /// Cell step of input i: w_i scaled onto the grid.
  int step(int i) const {
    return static_cast<int>(w[static_cast<size_t>(i)])
           << (grid_log - in_amp_log[static_cast<size_t>(i)]);
  }
  /// Uniform view over all outputs (output 0 is the primary).
  LutOutput output(int j) const {
    if (j == 0) return LutOutput{table, 0, out_amp_log};
    return extra[static_cast<size_t>(j - 1)];
  }
};

/// Structural legality of an (untrusted) LutSpec payload: fan-in, grid, and
/// amplitude ranges, truth tables / dc_mask confined to the 2^k reachable
/// combinations, slot shifts inside the test vector, and the hard weight-norm
/// cap every solver-produced spec satisfies (sum w_i^2 <= kLutMaxWeightNorm).
/// A spec that fails here would index out of the encoding grid or silently
/// corrupt phases downstream; graph construction rejects it with this Status.
Status validate_lut_spec(const LutSpec& spec);

/// Truth-table lookup: output bit for the input combination `idx`.
inline bool lut_eval(uint16_t table, unsigned idx) {
  return ((table >> idx) & 1u) != 0;
}

/// The torus cell hit by combo sum s on grid `grid_log`: phase
/// (2s+1)/2^(grid_log+1) mod 1 falls in half-torus slot `slot`
/// (0..2^(grid_log-1)-1) with `sign` +1, or in its negacyclic mirror with
/// `sign` -1.
inline void lut_cell_on_grid(int s, int grid_log, int& slot, int& sign) {
  const int cells = 1 << (grid_log + 1);
  const int half = cells / 2;
  const int t = (((2 * s + 1) % cells) + cells) % cells; // odd, in [1, cells)
  slot = ((t % half) - 1) / 2;
  sign = t < half ? 1 : -1;
}

/// Grid-3 shorthand (the stock gate grid) kept for the classic callers.
inline void lut_cell(int s, int& slot, int& sign) {
  lut_cell_on_grid(s, 3, slot, sign);
}

/// A cone-realization request for the generalized solver. Amplitudes may be
/// pinned (3 or 4) or left to the search (0 = free: 3 always allowed, 4 only
/// when the producer can be re-encoded). in_var carries the noise-variance
/// multiplicity of each input in bootstrap-output units (a kFreeOr wire sums
/// its operands' variances); dc_mask marks input combinations the compiler
/// has proven unreachable.
struct LutConeProblem {
  int k = 0;
  int n_out = 1;
  std::array<uint16_t, kLutMaxOutputs> tables{};
  uint32_t dc_mask = 0;
  std::array<int8_t, 4> in_amp_log{0, 0, 0, 0}; ///< 0 = solver's choice
  std::array<bool, 4> in_reencodable{};  ///< may the solver pick amp 4?
  std::array<int16_t, 4> in_var{1, 1, 1, 1};
  std::array<int8_t, kLutMaxOutputs> out_amp_log{3, 3, 3, 3};
  int budget_grid3 = kLutMaxWeightNorm;
  int budget_grid4 = kLutGrid4WeightNorm;

  int budget(int grid_log) const {
    return grid_log <= 3 ? budget_grid3 : budget_grid4;
  }
};

/// Search for weights, input amplitudes, a grid, and per-output slot shifts
/// realizing the problem's truth tables in one blind rotation.
/// Deterministic, coarsest-grid / minimum-noise first. Returns nullopt when
/// no consistent assignment exists -- the caller keeps the Boolean cone.
std::optional<LutSpec> solve_lut_cone(const LutConeProblem& prob);

/// Classic single-output grid-3 entry point (all amplitudes 1/8).
std::optional<LutSpec> solve_lut_cone(int k, uint16_t table);

/// The half-torus slot values of the spec's test vector (feed to
/// make_lut_testvector with slots = spec.slots()): +-1/2^amp per the truth
/// table(s), with unconstrained slots pinned to -1/2^out_amp. This vector is
/// the full encoding of the rotation -- grid, tables, shifts, and amplitudes
/// all round-trip through it, so it doubles as a cache key.
std::vector<Torus32> lut_slot_values(const LutSpec& spec);

} // namespace matcha
