// Newton machinery shared by the time-invariant solvers (dc::OpSolver and
// transient::TransientSolver).
//
// Both solvers assemble the circuit's mna::StampTable (the one place element
// stamps are written) followed by per-device companion stamps appended in
// device order, so the (row, col) sequence handed to
// sparse::PatternedMatrix::rebind() — and with it the merged structure and
// the recorded symbolic plan — is pinned across iterations. This header holds
// what the two solvers share on top of that table: the device companion
// stamps, junction limiting, the replay-or-fresh-factor step with its
// pivot threshold, and the damped Newton loop.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mna/assembler.h"
#include "netlist/circuit.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"
#include "support/cancellation.h"

namespace symref::dc {

/// Replay `lu`'s recorded plan on `matrix`, or else factor fresh once at the
/// Newton pivot threshold and keep the result as the new plan
/// (SparseLu::replay_or_factor; `fresh` counts the fresh attempt). Returns
/// false when the matrix is singular. The "newton_step" fault site drops a
/// plan the replay could have served, forcing that fresh factorization.
///
/// The Newton threshold is 1e-6, below the sparse::kPivotThreshold = 1e-3
/// every other solver factors at. The Newton Jacobian is a far harsher
/// replay customer than an AC sweep: a junction conductance swings from
/// ~1 S (forward bias) to gmin = 1e-12 S (cut off) between iterations, 12
/// decades, while an AC point moves values by fractions of a decade. The
/// lower threshold only widens the fresh factorization's pivot search; it
/// does not lower the replay bar: refactor() refuses a replay below
/// kReplayRelaxedThresholdScale x kPivotThreshold = 1e-8 relative, whatever
/// threshold recorded the plan.
bool replay_or_factor(sparse::SparseLu& lu, const sparse::CompressedMatrix& matrix,
                      std::uint64_t* fresh);

/// The circuit's stamp table, checked for the Newton solvers: throws
/// std::invalid_argument for a CCCS/CCVS sensing a branchless element and
/// mna::SingularSystemError for a non-ground node no element or device
/// touches. Every node therefore has a row, and row = node - 1: the unknown
/// vector is already in result order (node voltages in circuit order, then
/// branch currents in element order).
mna::StampTable solver_table(const netlist::Circuit& circuit);

/// Branch-current element names in row order.
std::vector<std::string> branch_names(const netlist::Circuit& circuit);

/// Per-device Newton state: the (limited) junction voltages the companion
/// models were last evaluated at, in the positive-polarity model frame.
struct DeviceState {
  double v1 = 0.0;  // diode vd / BJT vbe / MOS vgs
  double v2 = 0.0;  // BJT vbc / MOS vds
};

/// Append one device's companion stamps for the given evaluation (device
/// conductances + the junction gmin shunts) and subtract its equivalent
/// currents from `rhs`. MUST emit the same (row, col) sequence for every
/// call — the pattern pin.
void stamp_device(std::vector<sparse::PatternStamp>& stamps, const netlist::Device& d,
                  const DeviceState& state, double gmin, const mna::StampTable& table,
                  std::vector<double>* rhs);

/// Junction voltages proposed by the unknown vector x, in the
/// positive-polarity model frame.
DeviceState proposed_state(const netlist::Device& d, const std::vector<double>& x,
                           const mna::StampTable& table);

/// Initial junction guesses: forward junctions at vcrit (the classic SPICE
/// warm start that also makes the FIRST factorization see on-state
/// conductances, so the recorded pivot order stays acceptable for every
/// later replay), reverse junctions at zero.
DeviceState initial_state(const netlist::Device& d);

/// pnjlim applied to the exponential junctions of one device; MOS voltages
/// pass through (polynomial model, handled by the global damping clamp).
DeviceState limit_state(const netlist::Device& d, const DeviceState& proposed,
                        const DeviceState& old, bool* limited);

/// Global Newton damping clamp on node-voltage steps [V], per iterate.
inline constexpr double kMaxVoltageStep = 10.0;

/// Per-solver settings of one damped Newton solve.
struct NewtonControl {
  int max_iterations = 0;
  /// Per-unknown acceptance: |dx| <= abstol + reltol * max(|x_new|, |x_old|),
  /// abstol_v on node rows and abstol_i on branch rows.
  double reltol = 0.0;
  double abstol_v = 0.0;
  double abstol_i = 0.0;
  support::CancellationToken cancel;
};

/// Assembles and factors the linearized system at the given device states
/// and returns its solution (dim entries).
using LinearSolve =
    std::function<const std::vector<std::complex<double>>&(const std::vector<DeviceState>&)>;

/// The damped Newton loop of both solvers, from the iterate x / state: per
/// iterate, poll the cancel token, bump *iterations, solve, clamp node steps
/// to kMaxVoltageStep, test every unknown against its tolerance, pnjlim the
/// junctions, and stop once nothing was clamped or limited after the first
/// iterate. Returns true on convergence; x / state hold the last iterate
/// either way.
bool newton_solve(const netlist::Circuit& circuit, const mna::StampTable& table,
                  const NewtonControl& control, const LinearSolve& solve,
                  std::vector<double>& x, std::vector<DeviceState>& state, int* iterations);

}  // namespace symref::dc
