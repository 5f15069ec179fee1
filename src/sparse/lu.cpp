#include "sparse/lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>

#include "support/fault_injection.h"

namespace symref::sparse {

namespace {

using Complex = std::complex<double>;

/// Bounded Markowitz search: only this many least-populated active columns
/// are examined before falling back to a full scan (which is needed only
/// when none of the candidates holds a numerically acceptable pivot).
constexpr int kCandidateColumns = 4;

/// One entry of a row of the active submatrix during symbolic analysis.
struct ActiveEntry {
  int col = 0;
  Complex value;
};

}  // namespace

int permutation_sign(const std::vector<int>& order) {
  const std::size_t n = order.size();
  std::vector<bool> visited(n, false);
  int sign = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    std::size_t cycle_length = 0;
    std::size_t j = i;
    while (!visited[j]) {
      visited[j] = true;
      assert(order[j] >= 0 && static_cast<std::size_t>(order[j]) < n);
      j = static_cast<std::size_t>(order[j]);
      ++cycle_length;
    }
    if (cycle_length % 2 == 0) sign = -sign;
  }
  return sign;
}

bool SparseLu::factor(const CompressedMatrix& matrix, double pivot_threshold) {
  // Fault site "lu_alloc": the symbolic analysis is the allocation-heavy
  // path (plan vectors sized by fill-in); an injected bad_alloc exercises
  // the facade's kUnavailable mapping and the JobManager retry path.
  if (support::fault("lu_alloc")) throw std::bad_alloc();
  const int n = matrix.dim;
  dim_ = n;
  ok_ = false;
  max_abs_entry_ = 0.0;
  // A fresh plan per factor(): clones of this instance may still replay the
  // old one, so it is never mutated in place (copy-on-factor).
  plan_.reset();
  auto plan = std::make_shared<ReplayPlan>();
  plan->dim = n;
  plan->row_order.assign(static_cast<std::size_t>(n), -1);
  plan->col_order.assign(static_cast<std::size_t>(n), -1);
  plan->col_step.assign(static_cast<std::size_t>(n), -1);
  pivots_.assign(static_cast<std::size_t>(n), Complex{});

  // Active submatrix: unordered row vectors plus per-column row lists. The
  // column lists are append-only (rows detached by pivoting are skipped via
  // row_active), and exact active counts are kept separately for the
  // Markowitz costs. Duplicates cannot arise: a row is appended to a column
  // list only when the scatter stamp proves the entry is new.
  std::vector<std::vector<ActiveEntry>> rows(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> col_rows(static_cast<std::size_t>(n));
  std::vector<int> col_count(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    const int begin = matrix.row_start[static_cast<std::size_t>(r)];
    const int end = matrix.row_start[static_cast<std::size_t>(r) + 1];
    rows[static_cast<std::size_t>(r)].reserve(static_cast<std::size_t>(end - begin));
    for (int k = begin; k < end; ++k) {
      const int c = matrix.cols[static_cast<std::size_t>(k)];
      const Complex v = matrix.values[static_cast<std::size_t>(k)];
      max_abs_entry_ = std::max(max_abs_entry_, std::abs(v));
      rows[static_cast<std::size_t>(r)].push_back({c, v});
      col_rows[static_cast<std::size_t>(c)].push_back(r);
      ++col_count[static_cast<std::size_t>(c)];
    }
  }

  std::vector<char> row_active(static_cast<std::size_t>(n), 1);
  std::vector<char> col_active(static_cast<std::size_t>(n), 1);
  std::vector<int> row_step(static_cast<std::size_t>(n), -1);
  // Scatter workspace: stamp[col] == epoch marks presence, pos[col] is the
  // entry's index inside the row vector being updated.
  std::vector<int> stamp(static_cast<std::size_t>(n), -1);
  std::vector<int> pos(static_cast<std::size_t>(n), 0);
  int epoch = 0;

  // Per-step payload harvested into the flat plan after elimination.
  std::vector<std::vector<ActiveEntry>> urows(static_cast<std::size_t>(n));
  std::vector<std::vector<std::pair<int, Complex>>> lops(static_cast<std::size_t>(n));

  for (int step = 0; step < n; ++step) {
    // --- Pivot selection: minimum Markowitz cost among numerically
    // acceptable entries of the candidate columns; ties broken by larger
    // magnitude. Candidates are the least-populated active columns — the
    // classical observation (Markowitz, Sparse1.3) that the best pivot
    // almost always lives in a near-singleton column, so scanning the whole
    // active submatrix every step is wasted work.
    int pivot_row = -1;
    int pivot_col = -1;
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    double best_magnitude = 0.0;

    auto search_column = [&](int c) {
      const std::uint64_t count = static_cast<std::uint64_t>(col_count[static_cast<std::size_t>(c)]);
      for (const int r : col_rows[static_cast<std::size_t>(c)]) {
        if (!row_active[static_cast<std::size_t>(r)]) continue;
        const auto& row = rows[static_cast<std::size_t>(r)];
        double row_max = 0.0;
        Complex value;
        for (const ActiveEntry& entry : row) {
          row_max = std::max(row_max, std::abs(entry.value));
          if (entry.col == c) value = entry.value;
        }
        const double magnitude = std::abs(value);
        if (magnitude == 0.0 || magnitude < pivot_threshold * row_max) {
          continue;
        }
        const std::uint64_t cost = (row.size() - 1) * (count - 1);
        if (cost < best_cost || (cost == best_cost && magnitude > best_magnitude)) {
          best_cost = cost;
          best_magnitude = magnitude;
          pivot_row = r;
          pivot_col = c;
        }
      }
    };

    // Gather the kCandidateColumns least-populated active columns.
    int candidates[kCandidateColumns];
    int candidate_count = 0;
    for (int c = 0; c < n; ++c) {
      if (!col_active[static_cast<std::size_t>(c)] || col_count[static_cast<std::size_t>(c)] == 0) {
        continue;
      }
      int at = candidate_count < kCandidateColumns ? candidate_count : kCandidateColumns;
      // Insertion-sort by active count; the worst candidate falls off.
      while (at > 0 && col_count[static_cast<std::size_t>(candidates[at - 1])] >
                           col_count[static_cast<std::size_t>(c)]) {
        if (at < kCandidateColumns) candidates[at] = candidates[at - 1];
        --at;
      }
      if (at < kCandidateColumns) candidates[at] = c;
      if (candidate_count < kCandidateColumns) ++candidate_count;
    }
    for (int i = 0; i < candidate_count; ++i) search_column(candidates[i]);

    if (pivot_row < 0) {
      // None of the candidates holds an acceptable pivot: widen to the full
      // scan before declaring the matrix (numerically) singular.
      for (int c = 0; c < n; ++c) {
        if (col_active[static_cast<std::size_t>(c)] && col_count[static_cast<std::size_t>(c)] > 0) {
          search_column(c);
        }
      }
      if (pivot_row < 0) return false;
    }

    plan->row_order[static_cast<std::size_t>(step)] = pivot_row;
    plan->col_order[static_cast<std::size_t>(step)] = pivot_col;
    plan->col_step[static_cast<std::size_t>(pivot_col)] = step;
    row_step[static_cast<std::size_t>(pivot_row)] = step;
    row_active[static_cast<std::size_t>(pivot_row)] = 0;
    col_active[static_cast<std::size_t>(pivot_col)] = 0;

    // Freeze the pivot row as U row `step` (pivot entry kept separately).
    auto& prow = rows[static_cast<std::size_t>(pivot_row)];
    auto& urow = urows[static_cast<std::size_t>(step)];
    urow.reserve(prow.size() - 1);
    Complex pivot;
    for (const ActiveEntry& entry : prow) {
      --col_count[static_cast<std::size_t>(entry.col)];
      if (entry.col == pivot_col) {
        pivot = entry.value;
      } else {
        urow.push_back(entry);
      }
    }
    pivots_[static_cast<std::size_t>(step)] = pivot;
    prow.clear();
    prow.shrink_to_fit();

    // Eliminate pivot_col from every remaining row that contains it.
    auto& lrow = lops[static_cast<std::size_t>(step)];
    for (const int r : col_rows[static_cast<std::size_t>(pivot_col)]) {
      if (!row_active[static_cast<std::size_t>(r)]) continue;
      auto& row = rows[static_cast<std::size_t>(r)];
      ++epoch;
      for (std::size_t i = 0; i < row.size(); ++i) {
        stamp[static_cast<std::size_t>(row[i].col)] = epoch;
        pos[static_cast<std::size_t>(row[i].col)] = static_cast<int>(i);
      }
      const int at = pos[static_cast<std::size_t>(pivot_col)];
      const Complex multiplier = replay_div(row[static_cast<std::size_t>(at)].value, pivot);
      // Remove the eliminated entry (swap-pop keeps the scatter consistent).
      if (static_cast<std::size_t>(at) + 1 != row.size()) {
        row[static_cast<std::size_t>(at)] = row.back();
        pos[static_cast<std::size_t>(row[static_cast<std::size_t>(at)].col)] = at;
      }
      row.pop_back();
      --col_count[static_cast<std::size_t>(pivot_col)];
      lrow.emplace_back(r, multiplier);
      for (const ActiveEntry& entry : urow) {
        if (stamp[static_cast<std::size_t>(entry.col)] == epoch) {
          row[static_cast<std::size_t>(pos[static_cast<std::size_t>(entry.col)])].value -=
              multiplier * entry.value;
        } else {
          stamp[static_cast<std::size_t>(entry.col)] = epoch;
          pos[static_cast<std::size_t>(entry.col)] = static_cast<int>(row.size());
          row.push_back({entry.col, -multiplier * entry.value});
          col_rows[static_cast<std::size_t>(entry.col)].push_back(r);
          ++col_count[static_cast<std::size_t>(entry.col)];
          ++plan->fill_in;
        }
      }
    }
    col_rows[static_cast<std::size_t>(pivot_col)].clear();
  }

  plan->permutation_sign =
      permutation_sign(plan->row_order) * permutation_sign(plan->col_order);

  // --- Harvest the flat plan -------------------------------------------------
  plan->pattern_row_start = matrix.row_start;
  plan->pattern_cols = matrix.cols;
  plan->a_dest.resize(matrix.cols.size());
  for (std::size_t k = 0; k < matrix.cols.size(); ++k) {
    plan->a_dest[k] = plan->col_step[static_cast<std::size_t>(matrix.cols[k])];
  }

  // L bucketed by row-step; iterating steps in ascending order leaves each
  // row's dependencies sorted, which the replay and solve() rely on.
  plan->l_start.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int step = 0; step < n; ++step) {
    for (const auto& [r, multiplier] : lops[static_cast<std::size_t>(step)]) {
      ++plan->l_start[static_cast<std::size_t>(row_step[static_cast<std::size_t>(r)]) + 1];
    }
  }
  for (int i = 0; i < n; ++i) {
    plan->l_start[static_cast<std::size_t>(i) + 1] += plan->l_start[static_cast<std::size_t>(i)];
  }
  plan->l_steps.resize(static_cast<std::size_t>(plan->l_start[static_cast<std::size_t>(n)]));
  l_values_.resize(plan->l_steps.size());
  std::vector<int> cursor(plan->l_start.begin(), plan->l_start.end() - 1);
  for (int step = 0; step < n; ++step) {
    for (const auto& [r, multiplier] : lops[static_cast<std::size_t>(step)]) {
      const int i = row_step[static_cast<std::size_t>(r)];
      const int at = cursor[static_cast<std::size_t>(i)]++;
      plan->l_steps[static_cast<std::size_t>(at)] = step;
      l_values_[static_cast<std::size_t>(at)] = multiplier;
    }
  }

  // U rows are normalized to ascending step order. This is value-safe even
  // though the elimination froze them in its own order: within one dep row
  // every replay update targets a DISTINCT workspace slot, so reordering a
  // row permutes independent operations and every per-slot accumulation
  // sequence — hence every computed value — is unchanged. The normalization
  // gives the triangular solves a fixed deterministic accumulation order.
  plan->u_start.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int step = 0; step < n; ++step) {
    plan->u_start[static_cast<std::size_t>(step) + 1] =
        plan->u_start[static_cast<std::size_t>(step)] +
        static_cast<int>(urows[static_cast<std::size_t>(step)].size());
  }
  plan->u_steps.resize(static_cast<std::size_t>(plan->u_start[static_cast<std::size_t>(n)]));
  u_values_.resize(plan->u_steps.size());
  std::vector<std::pair<int, Complex>> sorted_row;
  for (int step = 0; step < n; ++step) {
    sorted_row.clear();
    for (const ActiveEntry& entry : urows[static_cast<std::size_t>(step)]) {
      sorted_row.emplace_back(plan->col_step[static_cast<std::size_t>(entry.col)], entry.value);
    }
    std::sort(sorted_row.begin(), sorted_row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    int at = plan->u_start[static_cast<std::size_t>(step)];
    for (const auto& [u_step, value] : sorted_row) {
      plan->u_steps[static_cast<std::size_t>(at)] = u_step;
      u_values_[static_cast<std::size_t>(at)] = value;
      ++at;
    }
  }

  plan_ = std::move(plan);
  ok_ = true;
  return true;
}

bool SparseLu::replay_or_factor(const CompressedMatrix& matrix, std::uint64_t* fresh,
                                double pivot_threshold) {
  if (refactor(matrix)) return true;
  if (fresh != nullptr) ++*fresh;
  return factor(matrix, pivot_threshold);
}

bool SparseLu::refactor(const CompressedMatrix& matrix) {
  if (!plan_ || !plan_->matches(matrix)) {
    return false;  // no plan or pattern changed: need a full factor()
  }
  // Fault site "lu_pivot": pretend a reused pivot fell below the replay bar.
  // The caller's fallback (one fresh factor at its threshold) re-selects the
  // same pivots on a healthy matrix, so results stay bit-identical — which
  // is exactly what the recovery tests assert.
  if (support::fault("lu_pivot")) return false;
  const ReplayPlan& plan = *plan_;
  const int n = plan.dim;
  dim_ = n;
  max_abs_entry_ = 0.0;
  for (const Complex& v : matrix.values) {
    max_abs_entry_ = std::max(max_abs_entry_, replay_abs(v));
  }
  l_values_.resize(plan.l_steps.size());
  u_values_.resize(plan.u_steps.size());
  pivots_.resize(static_cast<std::size_t>(n));

  // Up-looking replay: each row-step clears its pattern slots in the dense
  // workspace, scatters the row of A, applies the recorded updates of the
  // earlier steps in order, and gathers the surviving values back into the
  // flat U storage. The operation sequence matches factor() exactly, so
  // the numeric results agree bit-for-bit. Everything read from
  // the plan is const — a replay touches only this instance's numeric
  // payload, which is what lets clones sharing one plan run in parallel.
  work_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int k = plan.l_start[static_cast<std::size_t>(i)]; k < plan.l_start[static_cast<std::size_t>(i) + 1]; ++k) {
      work_[static_cast<std::size_t>(plan.l_steps[static_cast<std::size_t>(k)])] = Complex{};
    }
    for (int k = plan.u_start[static_cast<std::size_t>(i)]; k < plan.u_start[static_cast<std::size_t>(i) + 1]; ++k) {
      work_[static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)])] = Complex{};
    }
    work_[static_cast<std::size_t>(i)] = Complex{};

    const int r = plan.row_order[static_cast<std::size_t>(i)];
    for (int k = plan.pattern_row_start[static_cast<std::size_t>(r)];
         k < plan.pattern_row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      work_[static_cast<std::size_t>(plan.a_dest[static_cast<std::size_t>(k)])] =
          matrix.values[static_cast<std::size_t>(k)];
    }

    for (int k = plan.l_start[static_cast<std::size_t>(i)]; k < plan.l_start[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = plan.l_steps[static_cast<std::size_t>(k)];
      const Complex multiplier =
          replay_div(work_[static_cast<std::size_t>(j)], pivots_[static_cast<std::size_t>(j)]);
      l_values_[static_cast<std::size_t>(k)] = multiplier;
      for (int t = plan.u_start[static_cast<std::size_t>(j)]; t < plan.u_start[static_cast<std::size_t>(j) + 1]; ++t) {
        work_[static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(t)])] -=
            replay_mul(multiplier, u_values_[static_cast<std::size_t>(t)]);
      }
    }

    // Pivot acceptance against the replayed active row (pivot + U part),
    // with a relaxed threshold: this pivot position was not re-searched.
    const Complex pivot = work_[static_cast<std::size_t>(i)];
    const double pivot_magnitude = replay_abs(pivot);
    double row_max = pivot_magnitude;
    for (int k = plan.u_start[static_cast<std::size_t>(i)]; k < plan.u_start[static_cast<std::size_t>(i) + 1]; ++k) {
      row_max = std::max(
          row_max, replay_abs(work_[static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)])]));
    }
    if (pivot_magnitude == 0.0 ||
        pivot_magnitude < kReplayRelaxedThresholdScale * kPivotThreshold * row_max) {
      ok_ = false;
      return false;
    }
    pivots_[static_cast<std::size_t>(i)] = pivot;
    for (int k = plan.u_start[static_cast<std::size_t>(i)]; k < plan.u_start[static_cast<std::size_t>(i) + 1]; ++k) {
      u_values_[static_cast<std::size_t>(k)] =
          work_[static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)])];
    }
  }
  // Permutation, pattern and sign are unchanged by construction.
  ok_ = true;
  return true;
}

void SparseLu::solve(std::vector<Complex>& rhs) const {
  assert(ok_ && plan_);
  assert(static_cast<int>(rhs.size()) == dim_);
  if (!ok_ || !plan_) return;  // defined no-op in release builds
  const ReplayPlan& plan = *plan_;
  const int n = dim_;

  // Forward substitution L y = P b, then in-place back substitution
  // U z = y; both run on the flat per-row storage.
  work_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Complex acc = rhs[static_cast<std::size_t>(plan.row_order[static_cast<std::size_t>(i)])];
    for (int k = plan.l_start[static_cast<std::size_t>(i)]; k < plan.l_start[static_cast<std::size_t>(i) + 1]; ++k) {
      acc -= replay_mul(l_values_[static_cast<std::size_t>(k)],
                        work_[static_cast<std::size_t>(plan.l_steps[static_cast<std::size_t>(k)])]);
    }
    work_[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = n - 1; i >= 0; --i) {
    Complex acc = work_[static_cast<std::size_t>(i)];
    for (int k = plan.u_start[static_cast<std::size_t>(i)]; k < plan.u_start[static_cast<std::size_t>(i) + 1]; ++k) {
      assert(plan.u_steps[static_cast<std::size_t>(k)] > i);
      acc -= replay_mul(u_values_[static_cast<std::size_t>(k)],
                        work_[static_cast<std::size_t>(plan.u_steps[static_cast<std::size_t>(k)])]);
    }
    work_[static_cast<std::size_t>(i)] = replay_div(acc, pivots_[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(plan.col_order[static_cast<std::size_t>(i)])] =
        work_[static_cast<std::size_t>(i)];
  }
}

double SparseLu::min_abs_pivot() const noexcept {
  assert(ok_);
  if (!ok_) return 0.0;
  if (dim_ == 0) return std::numeric_limits<double>::infinity();
  double smallest = std::numeric_limits<double>::infinity();
  for (const Complex& pivot : pivots_) {
    smallest = std::min(smallest, replay_abs(pivot));
  }
  return smallest;
}

numeric::ScaledComplex SparseLu::determinant() const {
  if (!ok_) return numeric::ScaledComplex();
  return numeric::scaled_pivot_product(pivots_.data(), pivots_.size(), 1,
                                       static_cast<double>(plan_->permutation_sign));
}

}  // namespace symref::sparse
