#include "sparse/batched.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "support/fault_injection.h"
#include "support/thread_pool.h"

namespace symref::sparse {

namespace {
using Complex = std::complex<double>;

// Lane-loop micro-kernels on split re/im planes. Each performs, per lane,
// exactly the scalar expression it is named for (see replay_mul/replay_div
// in lu.h) — written as plane arithmetic so the compiler emits packed
// mul/add/div over adjacent lanes instead of per-complex shuffles. The
// baseline target has no FMA, so products and sums round exactly like the
// scalar helpers and bit-identity per lane is preserved.

// mult = work[j] / pivot[j] (the replay_div conjugate formula per lane).
inline void lane_div(double* __restrict mr, double* __restrict mi, const double* __restrict ar,
                     const double* __restrict ai, const double* __restrict br,
                     const double* __restrict bi, std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double den = br[l] * br[l] + bi[l] * bi[l];
    mr[l] = (ar[l] * br[l] + ai[l] * bi[l]) / den;
    mi[l] = (ai[l] * br[l] - ar[l] * bi[l]) / den;
  }
}

// work[i] = work[i] / pivot[i] — the in-place form the back substitution
// needs (numerator and destination are the same planes, so both parts are
// read before either is stored).
inline void lane_div_inplace(double* __restrict ar, double* __restrict ai,
                             const double* __restrict br, const double* __restrict bi,
                             std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double den = br[l] * br[l] + bi[l] * bi[l];
    const double re = (ar[l] * br[l] + ai[l] * bi[l]) / den;
    const double im = (ai[l] * br[l] - ar[l] * bi[l]) / den;
    ar[l] = re;
    ai[l] = im;
  }
}

// slot -= mult * uval (the replay_mul four-product formula per lane).
inline void lane_sub_mul(double* __restrict sr, double* __restrict si,
                         const double* __restrict mr, const double* __restrict mi,
                         const double* __restrict br, const double* __restrict bi,
                         std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    sr[l] -= mr[l] * br[l] - mi[l] * bi[l];
    si[l] -= mr[l] * bi[l] + mi[l] * br[l];
  }
}

/// Live testing::ScopedScalarReplay instances.
std::atomic<int> scalar_replay_scopes{0};

/// The one replay-kernel choice: batched lanes whenever `plan` can replay
/// `pattern` structurally and no ScopedScalarReplay is alive.
bool use_batched_replay(const ReplayPlan* plan, const CompressedMatrix& pattern) {
  return plan != nullptr && plan->matches(pattern) &&
         scalar_replay_scopes.load(std::memory_order_relaxed) == 0;
}

/// SoA lanes per batched group: on ladder-1024/4096 and 32x32 meshes, 16
/// beats 8 (index traffic not amortized) and 32 (the SoA workspace falls
/// out of L2). Results never depend on it (the oracle contract).
constexpr std::size_t kGroupWidth = 16;

/// The batched kernel of replay_points(): one ReplayPlan replayed across up
/// to width() points at once, structure-of-arrays (position k of lane l at
/// k * width() + l). Per lane the operation sequence is the scalar one (the
/// oracle contract in batched.h).
class BatchedReplay {
 public:
  /// Bind to a plan with a fixed SoA lane width (>= 1), sizing the numeric
  /// payload. Rebinding to the same plan and width is a cheap no-op, so the
  /// per-batch path stays allocation-free.
  void bind(std::shared_ptr<const ReplayPlan> plan, int width);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int dim() const noexcept { return plan_->dim; }

  /// Replay lanes [0, active) through the plan in one pass. The scatter
  /// assembles each lane value as it streams (and folds the max-|entry|
  /// scan into the same pass), so the nnz-by-width value block is never
  /// materialized: lane l gets the bits of base.assemble(s[l], f_scale,
  /// g_scale). Per-lane success is reported by lane_ok(); a refused lane's
  /// factors are garbage and must not be consumed.
  void replay(int active, const PatternedMatrix& base, const Complex* s, double f_scale,
              double g_scale);

  /// Whether lane's last replay() accepted every pivot.
  [[nodiscard]] bool lane_ok(int lane) const {
    return lane_ok_[static_cast<std::size_t>(lane)] != 0;
  }

  /// Batched triangular solves: rhs holds dim() SoA rows
  /// (rhs[r * width() + l]), overwritten with the solutions of lanes
  /// [0, active). Refused lanes produce garbage; skip them via lane_ok().
  void solve(std::vector<Complex>& rhs, int active) const;

  /// Smallest |pivot| of lanes [0, active) in one lane-inner pass over the
  /// pivot planes; valid for lanes with lane_ok().
  void min_abs_pivots(double* out, int active) const;

  /// Determinants (extended-range pivot products) of lanes [0, active) in
  /// one lane-inner pass. Per lane this replays numeric::scaled_pivot_product
  /// exactly — the window tests that decide when to renormalize depend only
  /// on the lane's own accumulator and factors, so the fold schedule (and
  /// therefore every rounding) is identical to the scalar call; a lane that
  /// ever meets an out-of-window factor is simply recomputed through the
  /// scalar routine.
  void determinants(numeric::ScaledComplex* out, int active) const;

  /// Largest |entry| of the lane's assembled values.
  [[nodiscard]] double max_abs_entry(int lane) const {
    return max_abs_entry_[static_cast<std::size_t>(lane)];
  }

 private:
  std::shared_ptr<const ReplayPlan> plan_;
  int width_ = 0;

  // --- SoA numeric payload (stride == width_, rewritten per replay) ---------
  // The factors and workspace are split into real/imaginary planes so the
  // lane loops are pure unit-stride double arithmetic — no shuffles,
  // straight packed mul/add/div/sqrt. The per-lane expression sequence is
  // unchanged, so the split is invisible to the oracle contract.
  std::vector<double> l_re_, l_im_;
  std::vector<double> u_re_, u_im_;
  std::vector<double> pivot_re_, pivot_im_;
  mutable std::vector<double> work_re_, work_im_;
  std::vector<double> row_norm_;    // per-lane |entry|^2 scratch for pivot tests
  std::vector<double> entry_norm_;  // per-lane max |a_kl|^2 scratch
  std::vector<double> s_re_, s_im_;  // deinterleaved lane frequencies
  std::vector<char> lane_ok_;
  std::vector<double> max_abs_entry_;
};

void BatchedReplay::bind(std::shared_ptr<const ReplayPlan> plan, int width) {
  assert(plan != nullptr);
  assert(width >= 1);
  if (plan_ == plan && width_ == width) return;  // hot path: keep the buffers
  plan_ = std::move(plan);
  width_ = width;
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t dim = static_cast<std::size_t>(plan_->dim);
  l_re_.assign(plan_->l_steps.size() * w, 0.0);
  l_im_.assign(plan_->l_steps.size() * w, 0.0);
  u_re_.assign(plan_->u_steps.size() * w, 0.0);
  u_im_.assign(plan_->u_steps.size() * w, 0.0);
  pivot_re_.assign(dim * w, 0.0);
  pivot_im_.assign(dim * w, 0.0);
  work_re_.assign(dim * w, 0.0);
  work_im_.assign(dim * w, 0.0);
  row_norm_.assign(w, 0.0);
  entry_norm_.assign(w, 0.0);
  s_re_.assign(w, 0.0);
  s_im_.assign(w, 0.0);
  lane_ok_.assign(w, 0);
  max_abs_entry_.assign(w, 0.0);
}

void BatchedReplay::replay(int active, const PatternedMatrix& base, const Complex* s,
                           double f_scale, double g_scale) {
  assert(plan_ != nullptr);
  assert(active >= 0 && active <= width_);
  const ReplayPlan& plan = *plan_;
  const std::size_t W = static_cast<std::size_t>(width_);
  const std::size_t A = static_cast<std::size_t>(active);

  // Fault site "lu_pivot": one draw per active lane in lane order — the
  // batched mirror of the scalar path's one draw per refactor() call. The
  // lane still streams through the elimination (loops stay uniform); its
  // results are simply never consumed.
  for (std::size_t l = 0; l < A; ++l) {
    lane_ok_[l] = support::fault("lu_pivot") ? 0 : 1;
  }

  // Largest |entry| per lane over the assembled values, folded into the
  // scatter below (every CSR position is scattered exactly once, and max
  // does not care about the visit order). Tracking the squared magnitude
  // and rooting once per lane equals the scalar max-of-replay_abs scan bit
  // for bit: a correctly rounded sqrt is monotone, so
  // max(sqrt(x_k)) == sqrt(max(x_k)).
  double* const entry_norm = entry_norm_.data();
  std::fill(entry_norm_.begin(), entry_norm_.begin() + active, 0.0);
  for (std::size_t l = 0; l < A; ++l) {
    s_re_[l] = s[l].real();
    s_im_[l] = s[l].imag();
  }
  const double* const conductance = base.conductance().data();
  const double* const capacitance = base.capacitance().data();

  double* const wre = work_re_.data();
  double* const wim = work_im_.data();
  double* const lre = l_re_.data();
  double* const lim = l_im_.data();
  double* const ure = u_re_.data();
  double* const uim = u_im_.data();
  double* const pre = pivot_re_.data();
  double* const pim = pivot_im_.data();
  double* const row_norm = row_norm_.data();

  // Up-looking replay, the step loop of SparseLu::refactor() with a lane
  // loop inside each statement: clear the row's pattern slots, scatter the
  // row of A, apply the earlier steps' updates in ascending dep order, test
  // the pivot, gather the surviving U row. Per lane that is the scalar
  // operation sequence exactly — the whole bit-identity argument.
  const double* const sre = s_re_.data();
  const double* const sim = s_im_.data();
  for (int i = 0; i < plan.dim; ++i) {
    const int l_begin = plan.l_start[static_cast<std::size_t>(i)];
    const int l_end = plan.l_start[static_cast<std::size_t>(i) + 1];
    const int u_begin = plan.u_start[static_cast<std::size_t>(i)];
    const int u_end = plan.u_start[static_cast<std::size_t>(i) + 1];

    // Clear the row's pattern slots.
    const auto clear = [&](int step) {
      const std::size_t off = static_cast<std::size_t>(step) * W;
      std::fill(wre + off, wre + off + A, 0.0);
      std::fill(wim + off, wim + off + A, 0.0);
    };
    for (int k = l_begin; k < l_end; ++k) clear(plan.l_steps[static_cast<std::size_t>(k)]);
    for (int k = u_begin; k < u_end; ++k) clear(plan.u_steps[static_cast<std::size_t>(k)]);
    clear(i);
    const std::size_t iw = static_cast<std::size_t>(i) * W;

    // Scatter the row of A, assembling each lane value as it streams.
    const int r = plan.row_order[static_cast<std::size_t>(i)];
    for (int k = plan.pattern_row_start[static_cast<std::size_t>(r)];
         k < plan.pattern_row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::size_t off =
          static_cast<std::size_t>(plan.a_dest[static_cast<std::size_t>(k)]) * W;
      const double g = g_scale * conductance[static_cast<std::size_t>(k)];
      const double c = f_scale * capacitance[static_cast<std::size_t>(k)];
      for (std::size_t l = 0; l < A; ++l) {
        const double vre = g + sre[l] * c;
        const double vim = sim[l] * c;
        wre[off + l] = vre;
        wim[off + l] = vim;
        entry_norm[l] = std::max(entry_norm[l], vre * vre + vim * vim);
      }
    }

    // Every earlier step's update, in ascending dep order.
    for (int k = l_begin; k < l_end; ++k) {
      const std::size_t j = static_cast<std::size_t>(plan.l_steps[static_cast<std::size_t>(k)]);
      const std::size_t mk = static_cast<std::size_t>(k) * W;
      lane_div(lre + mk, lim + mk, wre + j * W, wim + j * W, pre + j * W, pim + j * W, A);
      for (int t = plan.u_start[j]; t < plan.u_start[j + 1]; ++t) {
        const std::size_t off =
            static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(t)]) * W;
        const std::size_t uk = static_cast<std::size_t>(t) * W;
        lane_sub_mul(wre + off, wim + off, lre + mk, lim + mk, ure + uk, uim + uk, A);
      }
    }

    // Pivot acceptance per lane: same relaxed replay threshold as the
    // scalar path. The row maximum is accumulated over squared magnitudes
    // (one packed multiply-add per entry) and rooted once per lane — equal
    // to the scalar max-of-replay_abs scan because sqrt is monotone.
    for (std::size_t l = 0; l < A; ++l) {
      row_norm[l] = wre[iw + l] * wre[iw + l] + wim[iw + l] * wim[iw + l];
    }
    for (int k = u_begin; k < u_end; ++k) {
      const std::size_t off =
          static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)]) * W;
      for (std::size_t l = 0; l < A; ++l) {
        const double norm = wre[off + l] * wre[off + l] + wim[off + l] * wim[off + l];
        row_norm[l] = std::max(row_norm[l], norm);
      }
    }
    for (std::size_t l = 0; l < A; ++l) {
      const double pivot_magnitude =
          std::sqrt(wre[iw + l] * wre[iw + l] + wim[iw + l] * wim[iw + l]);
      const double row_max = std::sqrt(row_norm[l]);
      if (pivot_magnitude == 0.0 ||
          pivot_magnitude < kReplayRelaxedThresholdScale * kPivotThreshold * row_max) {
        lane_ok_[l] = 0;
      }
      pre[iw + l] = wre[iw + l];
      pim[iw + l] = wim[iw + l];
    }
    for (int k = u_begin; k < u_end; ++k) {
      const std::size_t off =
          static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)]) * W;
      const std::size_t uk = static_cast<std::size_t>(k) * W;
      for (std::size_t l = 0; l < A; ++l) {
        ure[uk + l] = wre[off + l];
        uim[uk + l] = wim[off + l];
      }
    }
  }

  for (std::size_t l = 0; l < A; ++l) max_abs_entry_[l] = std::sqrt(entry_norm[l]);
}

void BatchedReplay::solve(std::vector<Complex>& rhs, int active) const {
  assert(plan_ != nullptr);
  assert(active >= 0 && active <= width_);
  const ReplayPlan& plan = *plan_;
  const int n = plan.dim;
  assert(rhs.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(width_));
  const std::size_t W = static_cast<std::size_t>(width_);
  const std::size_t A = static_cast<std::size_t>(active);

  // Forward substitution L y = P b, then in-place back substitution
  // U z = y — the scalar solve() accumulation order per lane. The rhs stays
  // interleaved at the interface; it is deinterleaved into the work planes
  // on entry and reinterleaved by the final permutation scatter.
  double* const wre = work_re_.data();
  double* const wim = work_im_.data();
  const double* const lre = l_re_.data();
  const double* const lim = l_im_.data();
  const double* const ure = u_re_.data();
  const double* const uim = u_im_.data();
  const double* const pre = pivot_re_.data();
  const double* const pim = pivot_im_.data();
  for (int i = 0; i < n; ++i) {
    const std::size_t iw = static_cast<std::size_t>(i) * W;
    const Complex* src =
        rhs.data() + static_cast<std::size_t>(plan.row_order[static_cast<std::size_t>(i)]) * W;
    for (std::size_t l = 0; l < A; ++l) {
      wre[iw + l] = src[l].real();
      wim[iw + l] = src[l].imag();
    }
    for (int k = plan.l_start[static_cast<std::size_t>(i)];
         k < plan.l_start[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::size_t lk = static_cast<std::size_t>(k) * W;
      const std::size_t jw =
          static_cast<std::size_t>(plan.l_steps[static_cast<std::size_t>(k)]) * W;
      lane_sub_mul(wre + iw, wim + iw, lre + lk, lim + lk, wre + jw, wim + jw, A);
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    const std::size_t iw = static_cast<std::size_t>(i) * W;
    for (int k = plan.u_start[static_cast<std::size_t>(i)];
         k < plan.u_start[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::size_t uk = static_cast<std::size_t>(k) * W;
      const std::size_t jw =
          static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)]) * W;
      lane_sub_mul(wre + iw, wim + iw, ure + uk, uim + uk, wre + jw, wim + jw, A);
    }
    lane_div_inplace(wre + iw, wim + iw, pre + iw, pim + iw, A);
  }
  for (int i = 0; i < n; ++i) {
    const std::size_t iw = static_cast<std::size_t>(i) * W;
    Complex* dst =
        rhs.data() + static_cast<std::size_t>(plan.col_order[static_cast<std::size_t>(i)]) * W;
    for (std::size_t l = 0; l < A; ++l) {
      dst[l] = Complex(wre[iw + l], wim[iw + l]);
    }
  }
}

void BatchedReplay::min_abs_pivots(double* out, int active) const {
  assert(plan_ != nullptr);
  assert(active >= 0 && active <= width_);
  const std::size_t W = static_cast<std::size_t>(width_);
  const std::size_t A = static_cast<std::size_t>(active);
  const double* const pre = pivot_re_.data();
  const double* const pim = pivot_im_.data();
  for (std::size_t l = 0; l < A; ++l) out[l] = std::numeric_limits<double>::infinity();
  for (int i = 0; i < plan_->dim; ++i) {
    const std::size_t iw = static_cast<std::size_t>(i) * W;
    for (std::size_t l = 0; l < A; ++l) {
      const double norm = pre[iw + l] * pre[iw + l] + pim[iw + l] * pim[iw + l];
      out[l] = std::min(out[l], norm);
    }
  }
  for (std::size_t l = 0; l < A; ++l) out[l] = std::sqrt(out[l]);
}

void BatchedReplay::determinants(numeric::ScaledComplex* out, int active) const {
  assert(plan_ != nullptr);
  assert(active >= 0 && active <= width_);
  const std::size_t W = static_cast<std::size_t>(width_);
  const std::size_t A = static_cast<std::size_t>(active);
  const double* const pre = pivot_re_.data();
  const double* const pim = pivot_im_.data();
  const double sign = static_cast<double>(plan_->permutation_sign);
  // Same window as numeric::scaled_pivot_product; see there for the bounds.
  constexpr double kHigh = 0x1p256, kLow = 0x1p-256;
  std::vector<double> acc_re(A, sign), acc_im(A, 0.0), peak(A, 0.0);
  std::vector<std::int64_t> exponent(A, 0);
  std::vector<char> slow(A, 0);
  for (int i = 0; i < plan_->dim; ++i) {
    const std::size_t iw = static_cast<std::size_t>(i) * W;
    for (std::size_t l = 0; l < A; ++l) {
      const double vr = pre[iw + l];
      const double vi = pim[iw + l];
      const double vpeak = std::max(std::fabs(vr), std::fabs(vi));
      // Out-of-window factor: the scalar routine takes an eagerly
      // normalized step here; mark the lane for a scalar recompute (its
      // fast-path accumulator is garbage from now on) instead of breaking
      // the uniform loop.
      slow[l] |= static_cast<char>(!(vpeak > kLow && vpeak < kHigh));
      const double nr = acc_re[l] * vr - acc_im[l] * vi;
      const double ni = acc_re[l] * vi + acc_im[l] * vr;
      acc_re[l] = nr;
      acc_im[l] = ni;
      peak[l] = std::max(std::fabs(nr), std::fabs(ni));
    }
    for (std::size_t l = 0; l < A; ++l) {
      // Slow lanes are excluded: their accumulator is garbage (possibly
      // non-finite) and from_mantissa_exp requires finite input.
      if (slow[l] == 0 && !(peak[l] > kLow && peak[l] < kHigh)) {
        const numeric::ScaledComplex folded = numeric::ScaledComplex::from_mantissa_exp(
            std::complex<double>(acc_re[l], acc_im[l]), exponent[l]);
        acc_re[l] = folded.mantissa().real();
        acc_im[l] = folded.mantissa().imag();
        exponent[l] = folded.exponent2();
      }
    }
  }
  for (std::size_t l = 0; l < A; ++l) {
    out[l] = slow[l] != 0
                 ? numeric::scaled_pivot_product(pre + l, pim + l,
                                                 static_cast<std::size_t>(plan_->dim), W, sign)
                 : numeric::ScaledComplex::from_mantissa_exp(
                       std::complex<double>(acc_re[l], acc_im[l]), exponent[l]);
  }
}

}  // namespace

testing::ScopedScalarReplay::ScopedScalarReplay() {
  scalar_replay_scopes.fetch_add(1, std::memory_order_relaxed);
}

testing::ScopedScalarReplay::~ScopedScalarReplay() {
  scalar_replay_scopes.fetch_sub(1, std::memory_order_relaxed);
}

void solve_injected(const SparseLu& lu, std::span<const Injection> injections,
                    std::vector<Complex>& rhs) {
  rhs.assign(static_cast<std::size_t>(lu.dim()), Complex());
  for (const Injection& injection : injections) {
    if (injection.row >= 0) rhs[static_cast<std::size_t>(injection.row)] += injection.value;
  }
  lu.solve(rhs);
}

/// The SoA state of one pool lane: the replay bound to the shared plan, the
/// group's solutions (rhs[row * width + lane]) and its lazy reductions,
/// each valid for the current group once its flag is set.
struct ReplayedPoint::Group {
  BatchedReplay replay;
  std::vector<Complex> rhs;
  int active = 0;
  std::vector<numeric::ScaledComplex> determinants;
  std::vector<double> min_pivots;
  std::vector<double> max_norms;  // largest |x_r|^2 per lane
  bool have_determinants = false;
  bool have_min_pivots = false;
  bool have_max_norms = false;

  /// Solve the group's `count` lanes (already replayed) for the injections
  /// and drop the previous group's reductions.
  void solve(std::span<const Injection> injections, int count) {
    const std::size_t width = static_cast<std::size_t>(replay.width());
    rhs.assign(static_cast<std::size_t>(replay.dim()) * width, Complex());
    for (std::size_t l = 0; l < static_cast<std::size_t>(count); ++l) {
      for (const Injection& injection : injections) {
        if (injection.row >= 0) {
          rhs[static_cast<std::size_t>(injection.row) * width + l] += injection.value;
        }
      }
    }
    replay.solve(rhs, count);
    active = count;
    have_determinants = have_min_pivots = have_max_norms = false;
  }

  ReplayedPoint point(int slot) { return ReplayedPoint(*this, slot); }
};

ReplayedPoint::ReplayedPoint(Group& group, int slot) noexcept
    : group_(&group), slot_(slot), ok_(true) {}

Complex ReplayedPoint::x(int row) const {
  if (row < 0) return {};
  if (group_ == nullptr) return (*x_)[static_cast<std::size_t>(row)];
  return group_->rhs[static_cast<std::size_t>(row) *
                         static_cast<std::size_t>(group_->replay.width()) +
                     static_cast<std::size_t>(slot_)];
}

double ReplayedPoint::max_abs_x() const {
  // Squared magnitudes, one sqrt at the end: bitwise equal to the max over
  // replay_abs (sqrt is monotone), and lane-inner over a group's rows.
  if (group_ == nullptr) {
    double max_norm = 0.0;
    for (const Complex& value : *x_) {
      max_norm = std::max(max_norm, value.real() * value.real() + value.imag() * value.imag());
    }
    return std::sqrt(max_norm);
  }
  Group& group = *group_;
  if (!group.have_max_norms) {
    const std::size_t width = static_cast<std::size_t>(group.replay.width());
    const std::size_t active = static_cast<std::size_t>(group.active);
    group.max_norms.assign(width, 0.0);
    for (int r = 0; r < group.replay.dim(); ++r) {
      const Complex* row = group.rhs.data() + static_cast<std::size_t>(r) * width;
      for (std::size_t l = 0; l < active; ++l) {
        group.max_norms[l] = std::max(
            group.max_norms[l], row[l].real() * row[l].real() + row[l].imag() * row[l].imag());
      }
    }
    group.have_max_norms = true;
  }
  return std::sqrt(group.max_norms[static_cast<std::size_t>(slot_)]);
}

numeric::ScaledComplex ReplayedPoint::determinant() const {
  if (group_ == nullptr) return lu_->determinant();
  Group& group = *group_;
  if (!group.have_determinants) {
    group.determinants.resize(static_cast<std::size_t>(group.replay.width()));
    group.replay.determinants(group.determinants.data(), group.active);
    group.have_determinants = true;
  }
  return group.determinants[static_cast<std::size_t>(slot_)];
}

double ReplayedPoint::min_abs_pivot() const {
  if (group_ == nullptr) return lu_->min_abs_pivot();
  Group& group = *group_;
  if (!group.have_min_pivots) {
    group.min_pivots.resize(static_cast<std::size_t>(group.replay.width()));
    group.replay.min_abs_pivots(group.min_pivots.data(), group.active);
    group.have_min_pivots = true;
  }
  return group.min_pivots[static_cast<std::size_t>(slot_)];
}

double ReplayedPoint::max_abs_entry() const {
  return group_ == nullptr ? lu_->max_abs_entry() : group_->replay.max_abs_entry(slot_);
}

namespace {

/// Everything one pool lane of replay_points() owns.
struct ReplayLane {
  std::optional<PatternedMatrix> assembly;  // clone of the base values
  std::optional<SparseLu> lu;               // scalar path: clone of the planned LU
  SparseLu fresh;                           // a refused point's throwaway factorization
  std::vector<Complex> rhs;
  ReplayedPoint::Group group;               // batched path
  std::uint64_t fresh_count = 0;            // fallback factorizations

  PatternedMatrix& own_assembly(const PatternedMatrix& base) {
    if (!assembly) assembly.emplace(base);
    return *assembly;
  }
};

}  // namespace

std::size_t replay_points(const PatternedMatrix& base, const SparseLu& planned,
                          std::span<const Complex> points, double f_scale, double g_scale,
                          std::span<const Injection> injections, std::uint64_t* fresh,
                          support::ThreadPool* pool, const support::CancellationToken& cancel,
                          const PointSink& emit) {
  if (points.empty()) return 0;
  const bool batched = use_batched_replay(planned.plan().get(), base.matrix());
  const std::size_t group_width = std::min(kGroupWidth, points.size());
  std::vector<std::unique_ptr<ReplayLane>> lanes(
      static_cast<std::size_t>(pool != nullptr ? pool->size() : 1));

  // A refused point: factor it alone, leaving `planned` (and with it every
  // other point) untouched.
  auto fall_back = [&](ReplayLane& lane, const CompressedMatrix& matrix, std::size_t index) {
    ++lane.fresh_count;
    if (!lane.fresh.factor(matrix)) {
      emit(index, ReplayedPoint());
      return;
    }
    solve_injected(lane.fresh, injections, lane.rhs);
    emit(index, ReplayedPoint(lane.fresh, lane.rhs));
  };

  auto body = [&](std::size_t begin, std::size_t end, int lane_index) {
    std::unique_ptr<ReplayLane>& slot = lanes[static_cast<std::size_t>(lane_index)];
    if (!slot) slot = std::make_unique<ReplayLane>();
    ReplayLane& lane = *slot;
    if (!batched) {
      if (!lane.lu) lane.lu.emplace(planned);
      for (std::size_t i = begin; i < end; ++i) {
        if (cancel.cancelled()) throw support::CancelledError();
        const CompressedMatrix& matrix =
            lane.own_assembly(base).assemble(points[i], f_scale, g_scale);
        if (!lane.lu->refactor(matrix)) {
          fall_back(lane, matrix, i);
          continue;
        }
        solve_injected(*lane.lu, injections, lane.rhs);
        emit(i, ReplayedPoint(*lane.lu, lane.rhs));
      }
      return;
    }
    // SoA groups. A lane's per-point operation sequence never depends on the
    // grouping, so chunk boundaries (and the thread count) change nothing.
    ReplayedPoint::Group& group = lane.group;
    group.replay.bind(planned.plan(), static_cast<int>(group_width));
    for (std::size_t at = begin; at < end; at += group_width) {
      if (cancel.cancelled()) throw support::CancelledError();
      const int count = static_cast<int>(std::min(group_width, end - at));
      group.replay.replay(count, base, points.data() + at, f_scale, g_scale);
      group.solve(injections, count);
      for (int l = 0; l < count; ++l) {
        const std::size_t i = at + static_cast<std::size_t>(l);
        if (group.replay.lane_ok(l)) {
          emit(i, group.point(l));
        } else {
          fall_back(lane, lane.own_assembly(base).assemble(points[i], f_scale, g_scale), i);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(points.size(), body);
  } else {
    body(0, points.size(), 0);
  }

  if (fresh != nullptr) {
    for (const std::unique_ptr<ReplayLane>& lane : lanes) {
      if (lane) *fresh += lane->fresh_count;
    }
  }
  return batched ? points.size() : 0;
}

}  // namespace symref::sparse
