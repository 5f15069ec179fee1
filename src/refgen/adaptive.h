// The paper's contribution: adaptive-scaling polynomial interpolation.
//
// A single (f, g) scaling exposes only the coefficients within
// ~(interp::kNoiseDecades - sigma) decades of the scaled profile's peak (its
// "valid region", eq. (12)). The engine chains interpolations:
//
//   1. First scaling from element-value means: f = 1/mean(C), g = 1/mean(G)
//      (§3.2) — heuristically the widest region.
//   2. To reach higher powers of s, re-tilt by q from eq. (14):
//         q^(e-m) = (|p_m| / |p_e|) * 10^(13+r)
//      where m is the last region's peak index, e its upper end and r a
//      tuning factor; then f' = f*sqrt(q), g' = g/sqrt(q) (eq. (13),
//      simultaneous scaling keeps both factors below ~1e18, §3.2).
//   3. For lower powers, the mirrored eq. (15) with the region's lower end.
//   4. If a gap of invalid coefficients remains between two regions, retry
//      with the geometric-mean scale factors of the bracketing
//      interpolations (eq. (16)).
//   5. Once a low run p_0..p_{k-1} and the coefficients above the highest
//      unknown are known, later interpolations run on the deflated
//      polynomial (eq. (17)) with only l-k+1 points (§3.3).
//
// Numerator and denominator share every factorization; the scaling schedule
// is driven by the denominator until it completes, then by the numerator.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "interp/region.h"
#include "mna/nodal.h"
#include "mna/transfer.h"
#include "numeric/scaled.h"
#include "refgen/reference.h"
#include "support/cancellation.h"

namespace symref::refgen {

struct IterationRecord;

/// Iteration-progress observer: called on the engine's thread immediately
/// after each interpolation iteration is recorded (the record is final).
/// Long-running observers stall the engine; do not mutate engine state from
/// the callback. Response caches short-circuit whole runs, so an observer
/// sees no iterations on a cache hit.
using ProgressObserver = std::function<void(const IterationRecord&)>;

/// Consecutive no-progress iterations in one direction before the remaining
/// coefficients there are declared zero. Each failure escalates the tilt, so
/// they sit beyond 3 full validity windows of every observable region —
/// indistinguishable from zero at working precision (§3.1, §3.3).
inline constexpr int kNoProgressLimit = 3;

struct AdaptiveOptions {
  /// Significant digits demanded of each coefficient (eq. (12) floor).
  int sigma = 6;
  /// Tuning factor r of eqs. (14)/(15). 0 = adjacent regions just touch;
  /// negative values increase overlap (safer), positive speed up coverage.
  double tuning_r = 0.0;
  int max_iterations = 64;
  // Ablation switches, engine-only: not on the request wire and in no request
  // key, so api::Service rejects any other value; ablate on the engine.
  /// Apply eq. (17) deflation from the second interpolation on.
  bool use_deflation = true;
  /// Halve evaluations using P(conj s) = conj P(s).
  bool conjugate_symmetry = true;
  /// Split the tilt between f and g (eq. (13)). When false, the entire tilt
  /// goes into f (single-factor scaling — the §3.2 ablation; factors can
  /// then exceed 1e18 and lose accuracy).
  bool simultaneous_scaling = true;
  /// Worker lanes for the per-iteration sample batch (the LU evaluations —
  /// the dominant cost). 1 = serial; <= 0 picks the hardware thread count.
  /// Results are bit-identical at every setting: samples are independent
  /// replays of one shared factorization plan, written into per-point slots
  /// (see CofactorEvaluator::evaluate_batch).
  int threads = 1;
  /// Iteration-progress hook (see ProgressObserver above). Not part of any
  /// request fingerprint: two requests differing only here are identical.
  ProgressObserver on_iteration;
  /// Cooperative cancellation checkpoint, polled once per interpolation
  /// iteration. A cancelled run() throws support::CancelledError at the
  /// next iteration boundary. Like on_iteration, not part of any request
  /// fingerprint.
  support::CancellationToken cancel;
};

enum class IterationPurpose { Initial, Upward, Downward, GapRepair };

const char* purpose_name(IterationPurpose purpose) noexcept;

/// Everything one interpolation produced — the bench harnesses print these
/// records as the paper's Tables 2 and 3.
struct IterationRecord {
  int index = 0;
  IterationPurpose purpose = IterationPurpose::Initial;
  double f_scale = 1.0;
  double g_scale = 1.0;
  double q = 1.0;  // tilt applied relative to the previous iteration
  int points = 0;
  int evaluations = 0;
  bool deflated = false;
  int num_shift = 0;  // residual index offset (eq. (17) k) per polynomial
  int den_shift = 0;
  /// Normalized residual coefficients; entry i corresponds to s^(i+shift).
  std::vector<numeric::ScaledComplex> num_normalized;
  std::vector<numeric::ScaledComplex> den_normalized;
  /// Regions in residual index space.
  interp::ValidRegion num_region;
  interp::ValidRegion den_region;
  /// Estimated absolute noise injected by the eq. (17) subtraction of known
  /// coefficients (limits how deep the residual's valid region can reach).
  numeric::ScaledDouble num_subtraction_noise;
  numeric::ScaledDouble den_subtraction_noise;
  /// Estimated absolute noise from the matrix evaluations themselves
  /// (LU round-off amplified by entry spread; see CofactorEvaluator::Sample).
  numeric::ScaledDouble num_evaluation_noise;
  numeric::ScaledDouble den_evaluation_noise;
  int num_new_coefficients = 0;
  int den_new_coefficients = 0;
  /// Worst relative disagreement on re-computed (overlap) coefficients.
  double max_overlap_mismatch = 0.0;
  double seconds = 0.0;
};

struct AdaptiveResult {
  NumericalReference reference;
  std::vector<IterationRecord> iterations;
  bool complete = false;
  int total_evaluations = 0;
  double seconds = 0.0;
  std::string termination;  // "complete", "max_iterations", ...
  /// Homogeneity degrees used for (de)normalization (eq. (11) exponents).
  int numerator_degree = 0;
  int denominator_degree = 0;
};

class AdaptiveScalingEngine {
 public:
  /// The system/spec must outlive the engine. One run() per engine.
  ///
  /// `evaluator` (optional) is a caller-owned CofactorEvaluator built over
  /// the SAME system and spec, whose factorization counters the caller can
  /// read after run(); api::Service passes a fresh one per run. A reused
  /// evaluator carries its pivot history into the next run's result, and it
  /// is non-reentrant. When null, run() builds its own throwaway evaluator.
  AdaptiveScalingEngine(const mna::NodalSystem& system, const mna::TransferSpec& spec,
                        AdaptiveOptions options = {},
                        const mna::CofactorEvaluator* evaluator = nullptr);

  /// First-interpolation scale factors: f = 1/mean(C), g = 1/mean(G)
  /// (§3.2), each 1 when the circuit has no such element.
  [[nodiscard]] std::pair<double, double> initial_scales() const;

  AdaptiveResult run();

 private:
  const mna::NodalSystem& system_;
  const mna::TransferSpec& spec_;
  AdaptiveOptions options_;
  const mna::CofactorEvaluator* external_evaluator_ = nullptr;
};

/// Convenience wrapper: canonicalize + build the nodal system + run.
/// Returns the result together with the canonical circuit's order bound.
AdaptiveResult generate_reference(const netlist::Circuit& circuit,
                                  const mna::TransferSpec& spec,
                                  const AdaptiveOptions& options = {});

}  // namespace symref::refgen
