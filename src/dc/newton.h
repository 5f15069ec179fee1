// Damped Newton-Raphson DC operating-point (".op") solver.
//
// The solver assembles the circuit's MNA stamp table (mna::StampTable: node
// voltages plus auxiliary branch currents for V/E/H/L/opamp elements) at
// s = 0 — capacitors open, inductors shorted, their positions kept as
// explicit zeros — with every nonlinear device appended as its companion
// linearization (devices/models.h). The key property the engine is built
// around carries over from the AC path: the Jacobian's sparsity pattern is
// FIXED across iterations — device stamps are
// emitted at every position they can ever occupy (including a permanent
// gmin shunt across each junction), so iterating is
//
//   PatternedMatrix::rebind  (new values, same structure)
//   SparseLu::refactor       (numeric replay of the one recorded plan)
//
// and a fresh Markowitz factorization happens exactly once per pattern — or
// again, at the Newton pivot threshold (dc::replay_or_factor), only when a
// replay is refused. An OpSolver instance keeps its
// plan across solve() calls, and copies share it, so a parameter sweep
// re-solving the bias point per sample (each on a copy of the nominal
// solver) replays one plan for the whole sweep.
//
// Convergence homotopy, in order: plain damped Newton with junction
// limiting; gmin stepping (the junction shunt walks 1e-2 -> gmin, same
// pattern throughout); source stepping (DC sources ramped 0 -> 1). Failure
// of all three throws the typed NoConvergenceError (api maps it to
// kNoConvergence).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dc/stamps.h"
#include "netlist/circuit.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"
#include "support/cancellation.h"

namespace symref::dc {

/// The circuit refused to converge through the whole homotopy ladder.
class NoConvergenceError : public std::runtime_error {
 public:
  explicit NoConvergenceError(const std::string& message) : std::runtime_error(message) {}
};

/// Fixed settings of the operating-point solve.
/// Newton cap per homotopy stage.
inline constexpr int kMaxNewtonIterations = 200;
/// Convergence tolerances, SPICE-flavored: the accepted step must satisfy
/// |dx| <= abstol + reltol*|x| per unknown, with kNewtonAbstolV (SPICE
/// vntol) on node rows and kNewtonAbstolI (SPICE abstol) on branch rows.
/// Tighter settings than these run into linear-solve roundoff on realistic
/// (30 V rail, mA current) circuits — near-ground nodes jitter by
/// nanovolts, so a 1e-12 vntol can never be met even though the iterate has
/// fully converged. The achieved accuracy is far better than the tolerance
/// (Newton is quadratic near the solution; the last accepted step
/// overshoots the true error by orders of magnitude).
inline constexpr double kNewtonReltol = 1e-6;
inline constexpr double kNewtonAbstolV = 1e-6;   // [V]
inline constexpr double kNewtonAbstolI = 1e-12;  // [A]
/// Permanent junction shunt [S].
inline constexpr double kGmin = 1e-12;
/// gmin-stepping ladder entry [S].
inline constexpr double kGminStart = 1e-2;
/// Source-stepping ramp stages.
inline constexpr int kSourceSteps = 10;

/// Named operating-point quantities for one device (junction voltages,
/// terminal currents, small-signal parameters) in a fixed per-kind order.
struct OpDeviceInfo {
  std::string name;
  std::string kind;  // "diode" | "bjt" | "mos"
  std::vector<std::pair<std::string, double>> values;

  [[nodiscard]] double value(std::string_view key) const;  // 0.0 when absent
};

struct OpResult {
  /// Non-ground nodes in circuit index order (index i = circuit node i+1).
  std::vector<std::string> node_names;
  std::vector<double> node_voltages;
  /// Elements with auxiliary branch unknowns, in element order.
  std::vector<std::string> branch_names;
  std::vector<double> branch_currents;
  std::vector<OpDeviceInfo> devices;

  // Newton telemetry.
  int newton_iterations = 0;  // total across all homotopy stages
  int gmin_steps = 0;         // gmin-stepping stages actually run
  int source_steps = 0;       // source-stepping stages actually run
  std::uint64_t fresh_factorizations = 0;
  double max_residual = 0.0;  // final KCL residual, infinity norm [A]
  double seconds = 0.0;

  /// Solved voltage of a node by name (throws std::invalid_argument when
  /// the node is unknown; ground returns 0).
  [[nodiscard]] double voltage_of(std::string_view node) const;
};

/// Plan-holding Newton solver. The first solve() factors the Jacobian
/// pattern once; every later iteration — and every later solve() whose
/// merged stamp structure matches (a parameter-sweep sample) — replays the
/// recorded plan through rebind + refactor.
class OpSolver {
 public:
  /// `cancel` is polled at every Newton iterate.
  explicit OpSolver(support::CancellationToken cancel = {});

  /// Solve the DC operating point. Throws NoConvergenceError when the
  /// homotopy ladder is exhausted, mna::SingularSystemError when the DC
  /// system is singular, support::CancelledError on cancellation.
  OpResult solve(const netlist::Circuit& circuit);

  /// Fresh Markowitz factorizations performed over this solver's lifetime
  /// (the probe the one-shared-plan tests assert on).
  [[nodiscard]] std::uint64_t fresh_factor_count() const noexcept { return fresh_factors_; }

 private:
  support::CancellationToken cancel_;
  sparse::PatternedMatrix assembly_;
  /// The recorded Jacobian plan; reset whenever the merged structure changes.
  sparse::SparseLu lu_;
  std::uint64_t fresh_factors_ = 0;
};

/// One-shot convenience wrapper around OpSolver.
OpResult solve_op(const netlist::Circuit& circuit, support::CancellationToken cancel = {});

}  // namespace symref::dc
