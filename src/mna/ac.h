// AC small-signal simulator: one complex MNA solve per frequency point.
//
// This is the repo's stand-in for the "commercial electrical simulator" the
// paper compares against in Fig. 2 — a SPICE AC analysis is exactly this
// computation.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "sparse/batched.h"
#include "sparse/lu.h"
#include "support/cancellation.h"

namespace symref::mna {

struct BodePoint {
  double frequency_hz = 0.0;
  std::complex<double> value;
  double magnitude_db = 0.0;
  /// Unwrapped across the sweep (no +/-360 jumps between adjacent points).
  double phase_deg = 0.0;
};

/// 20*log10|value|; -inf dB saturates at -400.
double magnitude_db(std::complex<double> value) noexcept;

/// Principal phase in degrees, (-180, 180].
double phase_deg(std::complex<double> value) noexcept;

/// The ordered Bode reduction of a sweep: point i is (frequencies_hz[i],
/// values[i]) with magnitude_db and a phase unwrapped against point i - 1,
/// walked in grid order. AcSimulator::bode and NumericalReference::bode
/// both reduce through it.
std::vector<BodePoint> bode_points(std::span<const double> frequencies_hz,
                                   std::span<const std::complex<double>> values);

class AcSimulator {
 public:
  /// The circuit must outlive the simulator.
  explicit AcSimulator(const netlist::Circuit& circuit);

  /// Complex transfer value at a frequency. A VoltageGain spec drives the
  /// input pair with an ideal 1 V source; Transimpedance injects 1 A.
  /// Throws mna::SingularSystemError when the MNA system is singular and
  /// mna::SpecError when the spec names unknown or floating nodes or a
  /// degenerate input pair (mna::resolve_spec, the rules the interpolation
  /// engine applies too; see mna/errors.h).
  ///
  /// The circuit's stamp table plus the drive is merged into a
  /// pattern-cached matrix once per TransferSpec and cached; subsequent
  /// points of the same spec reuse the structural pattern and sweep via
  /// SparseLu::refactor() instead of re-assembling and re-pivoting. The
  /// cache makes the simulator non-reentrant (do not share one instance
  /// across threads) and snapshots the circuit at the first query per spec:
  /// mutate the circuit only through a fresh simulator, or results keep
  /// reflecting the old values.
  [[nodiscard]] std::complex<double> transfer(const TransferSpec& spec, double frequency_hz) const;

  /// Transfer at a complex frequency s (rad/s), for cross-checks against
  /// interpolated polynomials at arbitrary points.
  [[nodiscard]] std::complex<double> transfer_s(const TransferSpec& spec,
                                                std::complex<double> s) const;

  /// Sweep with log-spaced points; magnitude_db and unwrapped phase_deg are
  /// filled in. One factorization for the whole sweep (plus refactors).
  ///
  /// The first point establishes the factorization plan on the caller, like
  /// transfer(); sparse::replay_points() then solves every other point
  /// against it — SoA groups through its batched kernel when the plan
  /// replays the assembly, scalar refactor()s otherwise — over `threads`
  /// lanes. A point whose replay is refused re-factors on a throwaway
  /// instance, so per-point values depend only on (plan, frequency) — the
  /// sweep is bit-identical at every thread count and on either kernel.
  /// Phase unwrapping runs afterwards on the caller in frequency order
  /// (deterministic ordered reduction). `threads` <= 0 picks the hardware
  /// thread count (the ThreadPool convention); 1 is the serial path.
  ///
  /// `cancel` is a cooperative checkpoint polled before every point solve
  /// (before every SoA group on the batched path); a tripped token makes
  /// bode throw support::CancelledError promptly. The spec cache and its
  /// factorization plan stay valid — a later sweep on the same simulator
  /// just resumes replaying the plan.
  [[nodiscard]] std::vector<BodePoint> bode(const TransferSpec& spec, double f_start_hz,
                                            double f_stop_hz, int points_per_decade = 10,
                                            int threads = 1,
                                            support::CancellationToken cancel = {}) const;

 private:
  /// Per-spec sweep state: the drive-augmented pattern-cached matrix and the
  /// reusable factorization plan.
  struct SpecCache {
    TransferSpec spec;
    sparse::PatternedMatrix assembly;
    sparse::SparseLu lu;
    /// The drive: 1 V on the drive constraint's branch row (VoltageGain), or
    /// 1 A into in+ and out of in- (Transimpedance).
    std::vector<sparse::Injection> injections;
    int out_pos_row = -1;   // output pair rows (-1 = ground)
    int out_neg_row = -1;
  };

  SpecCache& prepare(const TransferSpec& spec) const;

  const netlist::Circuit& circuit_;
  mutable std::unique_ptr<SpecCache> cache_;
};

/// Bound on the points of a frequency grid, a simplify band, a param-sweep
/// sample plan and a param-sweep response (samples x frequencies); counts
/// come from requests, so a larger one fails before it is allocated.
inline constexpr int kMaxGridPoints = 1 << 20;

/// Log-spaced frequency grid [f_start, f_stop], 2 to kMaxGridPoints points.
std::vector<double> log_frequency_grid(double f_start_hz, double f_stop_hz,
                                       int points_per_decade);

}  // namespace symref::mna
