// Plan-reusing parameter sweeps: corners, tolerance grids and Monte-Carlo
// studies over the `.param` symbols of a hierarchical netlist.
//
// This is exactly the workload the symbolic/numeric LU split was built for:
// every sample changes element VALUES but never the matrix STRUCTURE, so
// the whole study replays ONE symbolic factorization plan instead of
// recompiling the circuit per sample. The per-sample pipeline is
//
//   NetlistTemplate::elaborate(overrides)   — re-expand with new parameters
//   -> canonicalize -> NodalSystem          — same topology, new values
//   -> CofactorEvaluator::rebind()          — rewrite assembly values in
//                                             place, keep pattern + LU plan
//   -> evaluate_pinned_batch() over the     — SparseLu::refactor() replay;
//      probe points                           a refused replay factors a
//                                             throwaway instance for that
//                                             point only (fresh_factor_count
//                                             is the probe for "did the plan
//                                             hold")
//
// and the transfer value at each probe frequency is H = N/D from the
// cofactor samples (extended-range division, so deep-stopband samples do
// not underflow).
//
// Parallelism and determinism: samples fan out shared-nothing over
// support::ThreadPool lanes. The baseline plan is established once on the
// caller (nominal parameters, first probe frequency); every lane clones the
// evaluator (sharing the immutable plan) and each (sample, frequency)
// result is a pure function of (plan, sample values, frequency) — never of
// evaluation order. Monte-Carlo draws are counter-based (a splitmix64 hash
// of seed/sample/parameter indices, not a shared stream), so the sampled
// values do not depend on lane scheduling either. Results are therefore
// bit-identical at every thread count, and a given (seed, sample count)
// always names the same study.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "mna/transfer.h"
#include "netlist/parser.h"
#include "support/cancellation.h"

namespace symref::mna {

/// One grid axis: `count` values from `from` to `to`, linearly or
/// log-spaced. Axes combine as a Cartesian product, first axis slowest.
struct ParamAxis {
  std::string name;
  double from = 0.0;
  double to = 0.0;
  int count = 1;
  bool log_scale = false;
};

/// One Monte-Carlo dimension: value = nominal * (1 + rel_sigma * draw),
/// with `draw` a standard normal (kGaussian) or uniform in [-1, 1]
/// (kUniform).
struct ParamDist {
  enum class Kind { kGaussian, kUniform };
  std::string name;
  double nominal = 0.0;
  double rel_sigma = 0.0;
  Kind kind = Kind::kGaussian;
};

/// A resolved sample list: `values` is sample-major
/// (values[i * names.size() + j] is parameter j of sample i).
struct ParamSamplePlan {
  std::vector<std::string> names;
  std::vector<double> values;

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return names.empty() ? 0 : values.size() / names.size();
  }
};

/// Cartesian product of the axes. Throws std::invalid_argument on empty or
/// duplicate names, count < 1, a non-positive log range, or a product over
/// 1<<20 samples (a sweep that large is a request bug, not a workload).
[[nodiscard]] ParamSamplePlan grid_samples(const std::vector<ParamAxis>& axes);

/// `samples` seeded Monte-Carlo draws. Deterministic in (dists, samples,
/// seed) alone. Throws std::invalid_argument on bad counts, empty/duplicate
/// names, or negative rel_sigma.
[[nodiscard]] ParamSamplePlan monte_carlo_samples(const std::vector<ParamDist>& dists,
                                                  int samples, std::uint64_t seed);

struct ParamSweepOptions {
  TransferSpec spec;
  /// Probe frequency grid the transfer function is evaluated on per sample
  /// (log-spaced, like AcSimulator::bode).
  double f_start_hz = 1.0;
  double f_stop_hz = 1e9;
  int points_per_decade = 10;
  /// Worker lanes; <= 0 picks the hardware thread count. Results are
  /// bit-identical at every setting.
  int threads = 1;
  /// Cooperative checkpoint, polled once per sample on every lane.
  support::CancellationToken cancel;
};

struct ParamSweepResult {
  std::vector<std::string> names;
  std::vector<double> frequencies_hz;
  /// Sample-major parameter values actually applied (grid coordinates or
  /// Monte-Carlo draws): values[i * names.size() + j].
  std::vector<double> values;
  /// Sample-major transfer values: response[i * frequencies_hz.size() + k]
  /// is H(j 2π f_k) of sample i. Points of a failed sample are (NaN, NaN).
  std::vector<std::complex<double>> response;
  /// Per sample: 1 when every probe point evaluated (non-singular system
  /// and non-zero denominator), else 0.
  std::vector<std::uint8_t> ok;
  /// Fresh (non-replay) factorizations across the whole sweep: 1 means the
  /// baseline symbolic plan served every sample and point — the headline
  /// economics this engine exists for (2 for a device-bearing netlist: the
  /// AC plan plus the one Newton Jacobian plan every bias solve replays).
  /// Independent of the thread count: every sample's bias solve starts from
  /// a fresh copy of the baseline solver, so a refused replay in one sample
  /// never leaves its fresh plan behind for the next.
  std::uint64_t fresh_factorizations = 0;
  /// DC operating-point solves performed: 0 for a linear netlist, else the
  /// nominal baseline bias plus one re-bias per sample — `.param` symbols
  /// reaching device cards vary the operating point, so every sample is
  /// linearized at ITS OWN bias.
  std::uint64_t op_solves = 0;
  /// Damped-Newton iterations across all bias solves. 0 for linear netlists.
  std::uint64_t newton_iterations = 0;
  double seconds = 0.0;
};

/// Run the sweep. Throws std::invalid_argument for plan/grid problems (a
/// response over kMaxGridPoints samples x frequencies among them) or
/// parameters the template does not define, netlist::ParseError when a
/// sample's elaboration fails (e.g. an override drives an expression into a
/// division by zero), dc::NoConvergenceError when a sample's bias solve
/// exhausts its homotopy ladder, and support::CancelledError on
/// cancellation.
[[nodiscard]] ParamSweepResult run_param_sweep(const netlist::NetlistTemplate& netlist,
                                               const ParamSamplePlan& plan,
                                               const ParamSweepOptions& options);

}  // namespace symref::mna
