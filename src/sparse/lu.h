// Sparse complex LU factorization split into a symbolic plan and a fast
// numeric replay.
//
// This is the workhorse behind the paper's eq. (7)-(10): every interpolation
// point costs one factorization of the (scaled) node-admittance matrix, one
// triangular solve for the output cofactors, and the determinant read off
// the pivot product. The paper notes the algorithm "has been implemented
// using sparse matrix techniques"; Markowitz ordering with threshold partial
// pivoting is the classical choice for circuit matrices (Kundert's Sparse1.3
// and SPICE use the same scheme).
//
// The interpolation engine evaluates the SAME circuit at dozens to hundreds
// of sample points, so the sparsity pattern never changes between
// factorizations. factor() therefore performs the expensive one-time work —
// Markowitz pivot ordering (bounded candidate search over the least-populated
// active columns) and the complete fill-in pattern — and stores the result as
// a flat CSR-like plan. refactor() replays only the numeric elimination
// through that plan with a dense scatter/gather workspace: no dynamic
// structures, no searching, no allocation on the repeated path. Both paths
// execute the identical floating-point operation sequence, so a refactor()
// is bit-for-bit equal to a fresh factor() that selects the same pivots.
//
// The determinant is returned as an extended-range ScaledComplex: the pivot
// product of a scaled 50-node matrix routinely leaves IEEE double range.
//
// Plan/workspace split for parallel replay: the symbolic plan is immutable
// once factor() succeeds and is held behind a shared_ptr, while the numeric
// payload (L/U values, pivots, scratch) is per instance. Copying a SparseLu
// therefore clones only the numeric workspace and SHARES the plan — the
// cheap per-thread clone the batch evaluators are built on. Any number of
// clones may refactor()/solve() concurrently; one instance is still
// single-threaded (solve() mutates its scratch workspace).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "numeric/scaled.h"
#include "sparse/matrix.h"

namespace symref::sparse {

/// Threshold partial pivoting of a fresh factorization: a candidate pivot
/// must satisfy |a_ij| >= threshold * max_j' |a_ij'| within its active row.
/// Samples, sweeps, sensitivities and the replay driver's fallbacks factor
/// at this threshold; the Newton Jacobian alone uses a lower one
/// (dc::replay_or_factor).
inline constexpr double kPivotThreshold = 1e-3;

/// Pivots reused by a plan replay (scalar refactor() or a batched-kernel
/// lane) were not re-searched, so they are accepted with a threshold this
/// much more permissive than kPivotThreshold, whatever threshold recorded
/// the plan; a pivot that falls below it refuses the replay and signals the
/// caller to re-run the full factor().
/// Both replay paths MUST share this constant — the refusal decision is part
/// of the bit-identity contract between them.
inline constexpr double kReplayRelaxedThresholdScale = 1e-5;

/// Complex magnitude of the replay hot paths: sqrt(re^2 + im^2) compiles to
/// a handful of vectorizable instructions instead of a libm hypot call, and
/// the matrices this library factors are scaled admittance matrices whose
/// entries sit far inside the |z| < ~1e150 range where the squared form is
/// exact enough (it can differ from std::abs by an ulp, never overflow).
/// Scalar refactor() and the batched kernel MUST share this function — pivot
/// refusal decisions and the min/max magnitude statistics are part of the
/// bit-identity contract between them.
inline double replay_abs(const std::complex<double>& z) noexcept {
  return std::sqrt(z.real() * z.real() + z.imag() * z.imag());
}

/// Complex multiply of the replay hot paths: the plain four-product formula
/// without the NaN-recovery branch GCC attaches to the builtin complex
/// multiply. Bitwise equal to operator* whenever the naive result is finite
/// (the recovery only rewrites NaN results); written out so the per-lane
/// loops of the batched kernel vectorize. Shared by scalar replay, batched
/// replay and both solve paths for the same bit-identity reason as
/// replay_abs.
inline std::complex<double> replay_mul(const std::complex<double>& a,
                                       const std::complex<double>& b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// Complex division of the factor/replay/solve hot paths: the direct
/// conjugate formula instead of the branchy Smith algorithm behind
/// operator/. The denominator |b|^2 stays in double range for any divisor
/// magnitude in ~(1e-150, 1e150) — comfortably true for pivots of scaled
/// admittance matrices (a pivot tiny enough to underflow here would long
/// since have been refused). Every elimination and solve MUST
/// divide through this one function: factor() and refactor() are bit-equal
/// because they execute identical arithmetic, and scalar/batched replays
/// likewise.
inline std::complex<double> replay_div(const std::complex<double>& a,
                                       const std::complex<double>& b) noexcept {
  const double den = b.real() * b.real() + b.imag() * b.imag();
  return {(a.real() * b.real() + a.imag() * b.imag()) / den,
          (a.imag() * b.real() - a.real() * b.imag()) / den};
}

/// The one-time symbolic work of SparseLu::factor(): pivot order, fill-in
/// pattern and scatter plan. Immutable once recorded and shared read-only
/// (shared_ptr) between a SparseLu, its clones and any batched replay bound
/// to it — every replay consumer walks the same flat arrays in the same
/// step order, which is what makes scalar and batched replays bit-identical
/// by construction (identical per-slot operation sequences).
///
/// Everything is expressed in STEP space (elimination order), not original
/// row/column indices: step i eliminates original row row_order[i] and
/// column col_order[i].
struct ReplayPlan {
  int dim = 0;
  std::size_t fill_in = 0;
  int permutation_sign = 1;
  std::vector<int> row_order;  // step -> original pivot row
  std::vector<int> col_order;  // step -> original pivot column
  std::vector<int> col_step;   // original column -> step
  /// Structural fingerprint of A for the refactor() pattern check.
  std::vector<int> pattern_row_start;
  std::vector<int> pattern_cols;
  /// CSR position k of A -> column-step workspace slot (scatter plan).
  std::vector<int> a_dest;
  /// L (unit lower) stored by row-step: for row i, steps j < i in ascending
  /// order with the multipliers. U stored by row-step: steps k > i in
  /// ascending step order with the row values; pivots kept separately.
  /// (Ascending U order is safe: within one dep row every update hits a
  /// distinct workspace slot, so the per-slot accumulation sequence — and
  /// hence every replayed value — is order-independent across the row.)
  std::vector<int> l_start;
  std::vector<int> l_steps;
  std::vector<int> u_start;
  std::vector<int> u_steps;

  /// True when `matrix` has exactly the structure this plan was recorded
  /// on — the structural half of every replay's acceptance test.
  [[nodiscard]] bool matches(const CompressedMatrix& matrix) const {
    return matrix.dim == dim && matrix.row_start == pattern_row_start &&
           matrix.cols == pattern_cols;
  }
};

class SparseLu {
 public:
  /// Factor the matrix at `pivot_threshold`; returns false when singular
  /// (no active row holds a nonzero pivot). Also records the symbolic plan
  /// (pivot order + fill pattern) consumed by refactor().
  bool factor(const CompressedMatrix& matrix, double pivot_threshold = kPivotThreshold);

  /// Re-factor a matrix with the SAME sparsity pattern using the plan of the
  /// last successful factor() — no Markowitz search, no new fill, just a
  /// flat numeric replay of the elimination (the classic create/factor split
  /// of SPICE and the analyze/factor split of KLU). Returns false when a
  /// reused pivot falls below kReplayRelaxedThresholdScale x kPivotThreshold
  /// of its row (caller should fall back to a fresh factor()) or when the
  /// structural pattern differs; the pattern check is exact (row/column
  /// structure, not just the nonzero count).
  /// The plan survives a refused refactor(), so another refactor() with
  /// acceptable values may follow without an intervening factor() — each
  /// replay depends only on (plan, input values), never on previous numeric
  /// state. That history independence is what makes per-point evaluation
  /// order (and hence thread count) irrelevant to the results.
  bool refactor(const CompressedMatrix& matrix);

  /// The one rule every solver uses to choose between replay and fresh
  /// factorization: refactor() the recorded plan, and when there is none or
  /// the replay is refused, factor(matrix, pivot_threshold) once and keep
  /// the result as the new plan. `fresh` (may be null) counts that fresh
  /// attempt, successful or not. Returns false when the matrix is singular
  /// (no plan is left).
  bool replay_or_factor(const CompressedMatrix& matrix, std::uint64_t* fresh,
                        double pivot_threshold = kPivotThreshold);

  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// True when a successful factor() has recorded a symbolic plan (possibly
  /// shared with clones of this instance). refactor() requires it.
  [[nodiscard]] bool has_plan() const noexcept { return plan_ != nullptr; }

  /// The recorded symbolic plan (nullptr before the first successful
  /// factor()). Shared read-only — the handle the batched kernel of
  /// replay_points() binds to.
  [[nodiscard]] std::shared_ptr<const ReplayPlan> plan() const noexcept { return plan_; }

  /// Fill-in created by elimination (entries in L+U beyond those of A).
  [[nodiscard]] std::size_t fill_in() const noexcept { return plan_ ? plan_->fill_in : 0; }

  /// Largest |entry| of the factored matrix and smallest |pivot| of U.
  /// Their ratio is a cheap proxy for the determinant's relative
  /// evaluation error (~eps * max_entry / min_pivot): perturbing one entry
  /// by delta changes det by delta * cofactor, and the largest cofactor is
  /// ~|det| / min_pivot.
  [[nodiscard]] double max_abs_entry() const noexcept { return max_abs_entry_; }

  /// Smallest |pivot| of U. Requires ok() (asserted, like solve()); returns
  /// 0.0 in release builds when nothing was factored, and +infinity for a
  /// dimension-0 system (the empty pivot product has no smallest factor).
  [[nodiscard]] double min_abs_pivot() const noexcept;

  /// Solve A x = b; rhs is overwritten with x. Requires ok(). Uses the
  /// instance's shared scratch workspace, so concurrent solve() calls on one
  /// SparseLu are not safe even though the method is const — the class is
  /// single-threaded by design (like the evaluators built on it).
  void solve(std::vector<std::complex<double>>& rhs) const;

  /// det(A) = sign(P) * sign(Q) * prod(pivots), extended range.
  [[nodiscard]] numeric::ScaledComplex determinant() const;

 private:
  int dim_ = 0;
  bool ok_ = false;
  double max_abs_entry_ = 0.0;
  std::shared_ptr<const ReplayPlan> plan_;

  // --- Numeric payload (rewritten by every factor()/refactor()) -------------
  std::vector<std::complex<double>> l_values_;
  std::vector<std::complex<double>> u_values_;
  std::vector<std::complex<double>> pivots_;

  // --- Workspaces (persist to keep the repeated path allocation-free) -------
  mutable std::vector<std::complex<double>> work_;
};

/// Permutation parity: +1 for even, -1 for odd. `order[k]` must be a
/// permutation of 0..n-1 (checked with assertions in debug builds).
int permutation_sign(const std::vector<int>& order);

}  // namespace symref::sparse
