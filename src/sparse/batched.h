// The multi-point replay driver: one recorded SparseLu plan solved at many
// points of the same pattern.
//
// The reference generator's inner loop is "evaluate the SAME circuit at N
// nearby points": N frequency samples of one interpolation batch, N points
// of an AC sweep, N probe frequencies of one Monte-Carlo sample.
// replay_points() is the one driver every such caller uses. It runs the
// points either through scalar SparseLu::refactor()/solve() calls or through
// its batched kernel, which stores every numeric array structure-of-arrays
// (position k of lane l at values[k * width + l], groups of up to 16 lanes)
// and walks the plan's steps exactly as refactor() does, with a lane loop
// inside each statement: one pass through the plan's index structure drives
// up to 16 independent eliminations whose inner loops are contiguous,
// branch-free and SIMD-friendly. The kernel is private to batched.cpp.
//
// THE ORACLE CONTRACT. Per lane, the floating-point operation sequence of
// the batched kernel is exactly the scalar SparseLu::refactor()/solve()
// sequence: same expression shapes, same per-slot accumulation order, same
// relaxed pivot-acceptance test. Results are therefore bit-identical to the
// scalar path — and, since each lane's sequence never depends on the lane
// count, the active count or any other lane's values, bit-identical across
// group fills, batch groupings and thread counts.
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

namespace testing {

/// Test-only oracle switch: while an instance is alive, replay_points() runs
/// its scalar kernel in the whole process, so every batch path runs the
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
/// Per lane it runs SoA groups of up to 16 points through the batched
/// kernel whenever the plan replays `base` structurally, scalar refactor()s
/// of a clone of `planned` otherwise; results are bit-identical either way,
/// so the choice is never a request option. A refused point falls back to a
/// throwaway fresh factorization of that point alone at kPivotThreshold (no
/// second replay, so "lu_pivot" is drawn once per point on both kernels),
/// and `planned` is never replaced: every point is a pure function of
/// (plan, point), so results are bit-identical at every group fill and
/// thread count.
/// `base` holds the assembly values, cloned per lane only where a point must
/// be assembled on its own; `planned` is never cloned on the batched path.
/// Each lane counts its fallbacks, added to `fresh` (may be null) after the
/// join. `cancel` is polled before every point (every group on the
/// batched path); a tripped token throws support::CancelledError. Returns
/// the number of points routed through batched lanes (0 on the scalar path).
std::size_t replay_points(const PatternedMatrix& base, const SparseLu& planned,
                          std::span<const std::complex<double>> points, double f_scale,
                          double g_scale, std::span<const Injection> injections,
                          std::uint64_t* fresh, support::ThreadPool* pool,
                          const support::CancellationToken& cancel, const PointSink& emit);

}  // namespace symref::sparse
