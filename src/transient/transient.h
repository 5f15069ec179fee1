// Time-domain (transient) analysis with plan-reusing time stepping.
//
// The circuit is the MNA system G·x + C·x' = b(t) of its stamp table
// (mna::StampTable: the G and C parts AC analysis assembles at s = jω).
// With y = C·x', every step of size h solves
//
//   (G + a0·C)·x1 = b(t1) + C·(a1·x0 + a2·x-1) + b1·y0
//
// and then records y1 = C·x1', which is C·(a0·x1 - a1·x0 - a2·x-1) - b1·y0
// in exact arithmetic (transient.cpp reads it off the step's equation), with
//
//   method   a0        a1     a2          b1
//   trap     2/h       2/h    0           1
//   BDF1     1/h       1/h    0           0
//   BDF2     3/(2h)    2/h    -1/(2h)     0
//
// so a step's matrix is the table assembled at the real point s = a0. Its
// positions are the same at every step, so the MNA pattern is fixed for the
// whole run: each accepted step is a PatternedMatrix rebind() + SparseLu
// refactor() replay of a recorded plan. a0 scales with 1/h, so the plan is
// keyed by the *step-size bucket*: allowed step sizes are h_ref / 2^k, each
// bucket owns one factorization plan (recorded the first time the
// controller lands in it and replayed forever after), and a constant-step
// run performs exactly three fresh factorizations end to end — the t = 0
// bias pattern, the consistent-initialization solve, and the single step
// bucket. `TransientResult::fresh_factorizations` probes the contract.
//
// Device-bearing netlists run a damped Newton iteration per step — the same
// dc::newton_solve the DC solver runs (fixed-pattern device companions,
// pnjlim junction limiting, dc::replay_or_factor's Newton threshold); the
// previous step's solution is the warm start, so a handful of iterations per
// step suffice and every iterate replays the bucket's plan. Every assembly
// appends its stamps in one pinned order: table stamps, device companions,
// .ic pins.
//
// Step control: the local truncation error is estimated per accepted
// candidate by comparing the corrector against a quadratic predictor
// extrapolated through the last three accepted points. A step whose estimate
// exceeds the tolerance is rejected (counted in lte_rejections) and retried
// in the next-smaller bucket; sustained headroom grows the step back toward
// h_ref. Fixed-step runs (adaptive = false) skip the controller entirely.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dc/stamps.h"
#include "netlist/circuit.h"
#include "sparse/matrix.h"
#include "support/cancellation.h"

namespace symref::transient {

enum class Method {
  kTrapezoidal,  // 2nd order, A-stable, the default
  kBdf1,         // backward Euler: 1st order, L-stable
  kBdf2,         // 2nd order, L-stable (BDF1 startup step)
};

/// "trap" / "bdf1" / "bdf2".
const char* method_name(Method method) noexcept;

/// Parse a method name; throws std::invalid_argument on anything else.
Method method_from_name(std::string_view name);

/// Fixed integrator settings.
/// LTE acceptance: |x - predictor| <= kLteAbstol + kLteReltol * |x| per
/// unknown.
inline constexpr double kLteReltol = 1e-3;
inline constexpr double kLteAbstol = 1e-6;
/// Deepest adaptive bucket: h_min = tstep / 2^kMaxHalvings.
inline constexpr int kMaxHalvings = 20;
/// Hard cap on accepted + rejected steps (runaway guard).
inline constexpr int kMaxSteps = 1 << 20;
/// Newton per step (device-bearing netlists).
inline constexpr int kMaxNewtonIterations = 100;
inline constexpr double kNewtonReltol = 1e-6;
inline constexpr double kNewtonAbstolV = 1e-9;
inline constexpr double kNewtonAbstolI = 1e-12;
/// Junction gmin shunt of the per-step device companions [S].
inline constexpr double kGmin = 1e-12;

struct TransientOptions {
  Method method = Method::kTrapezoidal;

  /// End of the simulated window (seconds, > 0 required).
  double tstop = 0.0;

  /// Reference (maximum) step size. 0 picks tstop / 1000. With adaptive
  /// control the allowed steps are tstep / 2^k, k in [0, kMaxHalvings].
  double tstep = 0.0;

  /// LTE step control on/off. Off = constant tstep steps (one bucket).
  bool adaptive = true;

  /// Cooperative cancellation, polled at every step (and every Newton
  /// iterate, the t = 0 bias solve's included): a tripped token throws
  /// support::CancelledError.
  support::CancellationToken cancel;
};

struct TransientResult {
  /// Unknown layout: node names (rows 0..) then branch names.
  std::vector<std::string> node_names;
  std::vector<std::string> branch_names;

  /// Accepted time points, t = 0 first; states[k] holds the full unknown
  /// vector (node voltages then branch currents) at times[k].
  std::vector<double> times;
  std::vector<std::vector<double>> states;

  int steps = 0;               // accepted steps (times.size() - 1)
  int lte_rejections = 0;      // rejected step candidates
  int newton_iterations = 0;   // total over all steps (0 for linear runs)
  int step_size_buckets = 0;   // distinct h buckets used by accepted steps

  /// Fresh factorizations, including the t = 0 bias solve's and the
  /// consistent-initialization solve's. The plan-replay contract for a
  /// linear reactive circuit: step_size_buckets + 2 (one bias factor, one
  /// initialization factor) under healthy replay; refused replays only add
  /// to it.
  std::uint64_t fresh_factorizations = 0;

  double seconds = 0.0;

  /// Waveform of one node (a ground alias reads all zeros) across times.
  /// Throws std::invalid_argument for an unknown node.
  [[nodiscard]] std::vector<double> waveform_of(std::string_view node) const;
};

class TransientSolver {
 public:
  explicit TransientSolver(TransientOptions options);

  /// Integrate `circuit` over [0, tstop]. The circuit must outlive the call.
  /// Throws mna::SingularSystemError (degenerate system),
  /// dc::NoConvergenceError (Newton or step-control breakdown),
  /// support::CancelledError, std::invalid_argument (bad options).
  [[nodiscard]] TransientResult solve(const netlist::Circuit& circuit);

 private:
  TransientOptions options_;
  sparse::PatternedMatrix assembly_;
  /// One factorization plan per step-size bucket (key: halving count k, or
  /// one of the special keys in transient.cpp).
  std::map<int, sparse::SparseLu> buckets_;
};

/// One-shot convenience wrapper.
[[nodiscard]] TransientResult solve_transient(const netlist::Circuit& circuit,
                                              const TransientOptions& options);

}  // namespace symref::transient
