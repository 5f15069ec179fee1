// The multi-point replay driver: one recorded SparseLu plan solved at many
// points of the same pattern.
//
// The reference generator's inner loop is "evaluate the SAME circuit at N
// nearby points": N frequency samples of one interpolation batch, N points
// of an AC sweep, N probe frequencies of one Monte-Carlo sample.
// replay_points() is the one driver every such caller uses. It runs the
// points either through scalar SparseLu::refactor()/solve() calls or through
// its batched kernel, which stores every numeric array structure-of-arrays
// (position k of lane l at values[k * width + l]) so that one pass through
// the plan's index structure drives `width` independent eliminations whose
// inner loops are contiguous, branch-free and SIMD-friendly. Supernodes (see
// ReplayPlan::supernode_start) run as small dense rank-k blocks. The kernel
// is private to batched.cpp.
//
// THE ORACLE CONTRACT. Per lane, the floating-point operation sequence of
// the batched kernel is exactly the scalar SparseLu::refactor()/solve()
// sequence: same expression shapes, same per-slot accumulation order, same
// relaxed pivot-acceptance test. Results are therefore bit-identical to the
// scalar path — and, since each lane's sequence never depends on the lane
// count, the active count or any other lane's values, bit-identical across
// batch widths, batch groupings and thread counts.
// tests/sparse/replay_differential_test holds this contract against
// randomized matrices and circuits by running replay_points() on both
// kernels (testing::ScopedScalarReplay forces the scalar one); any deviation
// is a bug here, not tolerance noise.
//
// Failure model: the scalar path abandons a replay at the first refused
// pivot; a batched lane instead records the refusal and keeps streaming (its
// remaining values are garbage, which keeps the hot loops uniform).
// replay_points() falls back per refused point identically on both kernels.
// The "lu_pivot" fault site is consulted once per point (in point order
// within a batched group), mirroring the scalar path's one draw per
// refactor() call, so fault-injection recovery tests observe identical
// engine statistics under either kernel.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "numeric/scaled.h"
#include "sparse/lu.h"
#include "sparse/matrix.h"
#include "support/cancellation.h"

namespace symref::support {
class ThreadPool;
}

namespace symref::sparse {

/// The one replay-kernel choice, made inside replay_points(): batched-kernel
/// lanes whenever `plan` can replay `pattern` structurally, the scalar
/// SparseLu::refactor() path otherwise. Results are bit-identical either
/// way (the oracle contract above), so the choice is never a request option.
[[nodiscard]] bool use_batched_replay(const ReplayPlan* plan, const CompressedMatrix& pattern);

namespace testing {

/// Test-only oracle switch: while an instance is alive, use_batched_replay()
/// answers false in the whole process, so every batch path runs the scalar
/// oracle the batched kernel is compared against. No request, option, flag
/// or environment variable reaches it.
class ScopedScalarReplay {
 public:
  ScopedScalarReplay();
  ~ScopedScalarReplay();
  ScopedScalarReplay(const ScopedScalarReplay&) = delete;
  ScopedScalarReplay& operator=(const ScopedScalarReplay&) = delete;
};

}  // namespace testing

/// Default SoA lane width for the batched consumers. Wide enough to amortize
/// the plan's index traffic across many points, small enough that the SoA
/// workspace (~ nnz * width * 16 bytes of values plus dim * width solve
/// slots) stays cache-resident for the circuit sizes the engine sweeps:
/// measured on ladder-1024/4096 and 32x32 grid meshes, width 16 beats both 8
/// (index traffic not yet amortized) and 32 (workspace falls out of L2).
/// Results never depend on it (see the oracle contract above).
inline constexpr int kDefaultBatchWidth = 16;

/// One right-hand-side entry of the points replay_points() solves:
/// rhs[row] += value, in list order; a row < 0 (ground) is skipped.
struct Injection {
  int row = -1;
  double value = 0.0;
};

/// The scalar point solve: rhs = the injections (lu.dim() entries), then
/// lu.solve(rhs). Requires lu.ok().
void solve_injected(const SparseLu& lu, std::span<const Injection> injections,
                    std::vector<std::complex<double>>& rhs);

/// One solved point: a scalar factorization with its solution vector, or a
/// lane of a replay_points() SoA group. A group point is valid only inside
/// the callback it is handed to. Group summaries are lazy: the determinant,
/// smallest pivot and largest |x| are lane-inner passes over the whole
/// group, run on the first read in that group, so a caller that reads two
/// solution entries pays for nothing else. Either form gives the same bits
/// (the oracle contract).
class ReplayedPoint {
 public:
  /// A point whose fresh factorization found the matrix singular.
  ReplayedPoint() = default;
  /// A scalar factorization (ok()) and its solution.
  ReplayedPoint(const SparseLu& lu, const std::vector<std::complex<double>>& x) noexcept
      : lu_(&lu), x_(&x), ok_(true) {}

  /// False when the matrix was singular; nothing else may be read then.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Solution entry; row < 0 (ground) reads 0.
  [[nodiscard]] std::complex<double> x(int row) const;
  /// Largest |x_r| over the solution.
  [[nodiscard]] double max_abs_x() const;
  [[nodiscard]] numeric::ScaledComplex determinant() const;
  [[nodiscard]] double min_abs_pivot() const;
  /// Largest |entry| of the factored matrix.
  [[nodiscard]] double max_abs_entry() const;

  /// One pool lane's SoA group state inside replay_points(); defined and
  /// used only in batched.cpp.
  struct Group;

 private:
  ReplayedPoint(Group& group, int slot) noexcept;

  const SparseLu* lu_ = nullptr;
  const std::vector<std::complex<double>>* x_ = nullptr;
  Group* group_ = nullptr;  // non-null for a group lane
  int slot_ = 0;
  bool ok_ = false;
};

/// Receives point `index` (into replay_points' `points`) once it is solved.
/// Called concurrently from pool lanes, never twice for one index.
using PointSink = std::function<void(std::size_t index, const ReplayedPoint& point)>;

/// The multi-point replay driver: solves
/// (g*G + s*(f*C)) x = injections at each s of `points` against the plan
/// recorded in `planned`, spread over `pool`'s lanes (nullptr: the caller's
/// thread only), and hands each solved point to `emit`.
///
/// Per lane it runs SoA groups of at most `width` (>= 1) points through the
/// batched kernel when use_batched_replay() allows, scalar refactor()s of a
/// clone of `planned` otherwise. A refused point falls back to a throwaway
/// fresh factorization of that point alone at kPivotThreshold (no second
/// replay, so "lu_pivot" is drawn once per point on both kernels), and
/// `planned` is never replaced: every point is a pure function of (plan,
/// point), so results are bit-identical at every width and thread count.
/// `base` holds the assembly values, cloned per lane only where a point must
/// be assembled on its own; `planned` is never cloned on the batched path.
/// Each lane counts its fallbacks, added to `fresh` (may be null) after the
/// join. `cancel` is polled before every point (every group on the
/// batched path); a tripped token throws support::CancelledError. Returns
/// the number of points routed through batched lanes (0 on the scalar path).
std::size_t replay_points(const PatternedMatrix& base, const SparseLu& planned,
                          std::span<const std::complex<double>> points, double f_scale,
                          double g_scale, std::span<const Injection> injections,
                          std::uint64_t* fresh, support::ThreadPool* pool, int width,
                          const support::CancellationToken& cancel, const PointSink& emit);

}  // namespace symref::sparse
