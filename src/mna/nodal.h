// Homogeneous node-admittance formulation for the interpolation engine.
//
// Over a canonical circuit ({G, C, VCCS}, see netlist/canonical.h) every
// matrix entry is a sum of admittances, so every determinant term is a
// product of exactly M admittance factors (M = matrix dimension) and every
// cofactor term a product of M-1. That homogeneity is what makes the
// paper's conductance scaling (eq. (11)) exact:
//
//   p'_j = p_j * f^j * g^(deg - j)
//
// where scale factors multiply element values (c_e -> f*c_e, g_e -> g*g_e)
// and deg is the polynomial's homogeneity degree.
//
// Network functions are evaluated per interpolation point the classical way
// (paper eqs. (7)-(10)): one sparse LU factorization gives the determinant
// from the pivot product, one solve with a unit current injection at the
// input pair gives the cofactor sums:
//
//   voltage gain:   N(s) = (V_out+ - V_out-) * det,  D(s) = (V_in+ - V_in-) * det
//                   (both homogeneous of degree M-1; Lin's cofactor form)
//   transimpedance: N(s) as above (degree M-1),      D(s) = det (degree M)
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "numeric/scaled.h"
#include "sparse/batched.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"

namespace symref::support {
class ThreadPool;
}

namespace symref::mna {

/// Structural stamp and pattern-cached assembly (see sparse/matrix.h).
using sparse::PatternStamp;
using sparse::PatternedMatrix;

class NodalSystem {
 public:
  /// Throws std::invalid_argument unless the circuit is canonical.
  explicit NodalSystem(const netlist::Circuit& circuit);

  /// Matrix dimension M (active non-ground nodes).
  [[nodiscard]] int dim() const noexcept { return dim_; }

  /// Number of capacitor elements stamped (each is a rank-1 determinant
  /// update, so the determinant's s-degree is at most this).
  [[nodiscard]] int capacitor_count() const noexcept { return capacitor_count_; }

  /// Upper bound on the s-degree of the determinant.
  [[nodiscard]] int order_bound() const noexcept {
    return capacitor_count_ < dim_ ? capacitor_count_ : dim_;
  }

  /// Row of a node's unknown; nullopt for ground ("0") and unknown names.
  [[nodiscard]] std::optional<int> row_of_node(std::string_view name) const;

  /// Row of each circuit node: -1 for ground and for nodes no element
  /// touches (StampTable::node_to_row).
  [[nodiscard]] const std::vector<int>& node_to_row() const noexcept { return node_to_row_; }

  /// The merged structural stamps (sorted by row, then column). Callers may
  /// append extra stamps (e.g. a drive admittance) and feed the list to a
  /// PatternedMatrix for allocation-free per-sample assembly: Y(s_hat) with
  /// every conductance scaled by g_scale and every capacitance by f_scale
  /// is PatternedMatrix(dim(), stamps()).assemble(s_hat, f_scale, g_scale).
  [[nodiscard]] const std::vector<PatternStamp>& stamps() const noexcept { return entries_; }

  [[nodiscard]] const netlist::Circuit& circuit() const noexcept { return circuit_; }

 private:
  const netlist::Circuit& circuit_;
  int dim_ = 0;
  int capacitor_count_ = 0;
  std::vector<int> node_to_row_;
  std::vector<PatternStamp> entries_;
};

/// One interpolation-point evaluation of the network function's numerator
/// and denominator.
class CofactorEvaluator {
 public:
  /// Throws std::invalid_argument when the spec references unknown or
  /// floating nodes.
  CofactorEvaluator(const NodalSystem& system, const TransferSpec& spec);

  /// Copying clones the pattern-cached assembly values and the LU numeric
  /// workspace while SHARING the immutable symbolic plan — the cheap
  /// per-lane clone parameter sweeps are built on (see rebind()).
  CofactorEvaluator(const CofactorEvaluator&) = default;
  CofactorEvaluator& operator=(const CofactorEvaluator&) = default;

  /// Homogeneity degrees used for denormalization.
  [[nodiscard]] int numerator_degree() const noexcept { return system_->dim() - 1; }
  [[nodiscard]] int denominator_degree() const noexcept {
    return spec_.kind == TransferSpec::Kind::VoltageGain ? system_->dim() - 1 : system_->dim();
  }

  struct Sample {
    numeric::ScaledComplex numerator;
    numeric::ScaledComplex denominator;
    /// Estimated relative evaluation errors of the two sample values. Two
    /// mechanisms contribute:
    ///  * determinant round-off: eps * max|entry| / min|pivot| (grows when
    ///    the scaling spreads conductance and capacitor entries apart —
    ///    §3.2's warning about overly large scale factors);
    ///  * solve round-off on the port voltage: eps * max_j|V_j| / |V_port|
    ///    (dominates when the output voltage is orders of magnitude below
    ///    the other node voltages, e.g. deep-stopband numerators).
    /// Both feed the engine's acceptance floor.
    double numerator_error = 0.0;
    double denominator_error = 0.0;
    bool ok = false;
  };

  /// Evaluate N and D at one scaled frequency point.
  ///
  /// Successive evaluations reuse the previous pivot order (static-pivot
  /// refactorization — the pattern is identical across interpolation
  /// points); when the replay is refused, one fresh factorization at
  /// sparse::kPivotThreshold becomes the new plan.
  /// The cached factorization makes this method non-reentrant: do not share
  /// one evaluator across threads.
  [[nodiscard]] Sample evaluate(std::complex<double> s_hat, double f_scale,
                                double g_scale) const;

  /// Evaluate a whole batch of points at one (f, g) scaling — the inner loop
  /// of one interpolation iteration, and the unit of parallelism.
  ///
  /// The first point runs on the caller exactly like evaluate() (persisting
  /// a fresh factorization when the replay is refused), establishing the
  /// shared baseline plan for the batch. Every remaining point is evaluated
  /// against that immutable baseline by sparse::replay_points() — SoA groups
  /// through its batched kernel when the plan replays the assembly, scalar
  /// replays otherwise, spread over `pool` — and a point whose replay is
  /// refused falls back to a throwaway fresh factorization of that point
  /// alone (counted by fresh_factor_count()). Per-point
  /// results therefore depend only on (plan, point), never on evaluation
  /// order — the returned samples are bit-identical at every thread count,
  /// including the serial `pool == nullptr` path.
  ///
  /// Results are returned in point order. A singular point yields a sample
  /// with ok == false; other points are unaffected (when the first point
  /// leaves no baseline plan, each remaining point runs its own fresh
  /// factorization — still a pure function of that point alone).
  [[nodiscard]] std::vector<Sample> evaluate_batch(
      const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale,
      support::ThreadPool* pool = nullptr) const;

  /// Point the evaluator at a NEW NodalSystem with the same structure but
  /// different element values — the per-sample step of a parameter sweep.
  /// Re-resolves the spec rows, keeps the drive admittance chosen at
  /// construction (exactness does not depend on its value — see the drive
  /// note below), and rewrites the assembly values IN PLACE when the stamp
  /// structure matches the cached pattern. The cached LU plan is kept
  /// either way: a matching pattern replays it; a changed one makes the
  /// next replay refuse, falling back to a fresh factorization. `system`
  /// must outlive the evaluator (or the next rebind).
  void rebind(const NodalSystem& system);

  /// Every point against the PINNED member plan, on the caller's thread:
  /// evaluate_batch() without the first-point refresh. The member plan is
  /// never replaced (a refused point factors a throwaway instance, counted
  /// by fresh_factor_count()), so results depend only on (plan, point,
  /// values), never on evaluation history — which is what keeps parameter
  /// sweeps bit-identical at every thread count. Results and counters are
  /// identical on either replay kernel.
  [[nodiscard]] std::vector<Sample> evaluate_pinned_batch(
      const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale) const;

  /// Fresh (non-replay) factorizations this instance has run: evaluate()'s
  /// plan refreshes and every refused point's throwaway factorization in
  /// evaluate_batch() and evaluate_pinned_batch(), at any thread count. The
  /// plan probe of parameter-sweep tests and benches.
  [[nodiscard]] std::uint64_t fresh_factor_count() const noexcept { return fresh_factors_; }

  /// Points this instance has evaluated through batched replay lanes
  /// (evaluate_batch / evaluate_pinned_batch on a replayable plan; points
  /// that ran the scalar path are not counted).
  /// Purely observational — feeds Service::engine_stats, never results.
  [[nodiscard]] std::uint64_t batched_lane_count() const noexcept { return batched_lane_count_; }

 private:
  /// N, D and the two error proxies of one solved point; the arithmetic is
  /// the same whichever replay path solved it (bit-identity).
  [[nodiscard]] Sample sample_from(const sparse::ReplayedPoint& point) const;

  /// Resolve the spec rows against *system_ and (re)build the pattern-cached
  /// assembly from its stamps plus the drive admittance.
  void bind_system();

  const NodalSystem* system_;  // pointer so rebind() can reseat it
  TransferSpec spec_;
  int in_pos_ = -1;  // -1 encodes ground
  int in_neg_ = -1;
  int out_pos_ = -1;
  int out_neg_ = -1;
  /// The unit current injected at the input pair (the cofactor solve).
  std::array<sparse::Injection, 2> injections_;
  /// Fresh factorizations; like the lane count below, written on the
  /// caller thread only (replay_points joins lane counts).
  mutable std::uint64_t fresh_factors_ = 0;
  mutable std::uint64_t batched_lane_count_ = 0;
  // Pattern-cached assembly (system stamps + drive admittance, merged once)
  // and the cached factorization plan reused across evaluation points.
  mutable PatternedMatrix assembly_;
  mutable sparse::SparseLu lu_;
  // Drive admittance stamped across the input pair for VoltageGain specs.
  // Needed when the input node carries no admittance of its own (it only
  // controls sources): det(Y) would be structurally zero. By the
  // Sherman-Morrison identity, adding y_d * u * u^T with u = e_in+ - e_in-
  // leaves every component of adj(Y) * u — i.e. both N and D — exactly
  // unchanged, so the recovered polynomials are still those of the original
  // circuit (and still homogeneous in its elements).
  double drive_conductance_ = 0.0;
  double drive_capacitance_ = 0.0;
};

}  // namespace symref::mna
