// Dense and sparse LU: solve, determinant, pivoting, plan reuse.
#include "sparse/lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>

#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "sparse/dense.h"
#include "support/random.h"
#include "test_matrices.h"

namespace symref::sparse {
namespace {

using Complex = std::complex<double>;
using test::at_i;
using test::entry;
using test::random_matrix;

std::vector<Complex> random_vector(support::Rng& rng, int n) {
  std::vector<Complex> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

double residual_norm(const CompressedMatrix& a, const std::vector<Complex>& x,
                     const std::vector<Complex>& b) {
  std::vector<Complex> ax;
  a.multiply(x, ax);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) worst = std::max(worst, std::abs(ax[i] - b[i]));
  return worst;
}

/// diag(1, 1, 1) plus 0.5 at (0, 1).
CompressedMatrix healthy_3x3() {
  return at_i(3, {entry(0, 0, {1.0, 0.0}), entry(1, 1, {1.0, 0.0}), entry(2, 2, {1.0, 0.0}),
                  entry(0, 1, {0.5, 0.0})});
}

/// healthy_3x3()'s pattern with the (1, 1) pivot collapsed to 1e-30 and the
/// (0, 1) entry exploded to 1e20: a replay of the healthy plan must refuse.
CompressedMatrix degraded_3x3() {
  return at_i(3, {entry(0, 0, {1.0, 0.0}), entry(1, 1, {1e-30, 0.0}), entry(2, 2, {1.0, 0.0}),
                  entry(0, 1, {1e20, 0.0})});
}

TEST(PermutationSign, CyclesAndIdentity) {
  EXPECT_EQ(permutation_sign({0, 1, 2}), 1);
  EXPECT_EQ(permutation_sign({1, 0, 2}), -1);
  EXPECT_EQ(permutation_sign({1, 2, 0}), 1);   // 3-cycle: even
  EXPECT_EQ(permutation_sign({3, 2, 1, 0}), 1); // two swaps
  EXPECT_EQ(permutation_sign({}), 1);
}

TEST(DenseLu, SolvesKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseLu lu;
  ASSERT_TRUE(lu.factor({Complex(2), Complex(1), Complex(1), Complex(3)}, 2));
  std::vector<Complex> b{{5.0, 0.0}, {10.0, 0.0}};
  lu.solve(b);
  EXPECT_LT(std::abs(b[0] - Complex(1.0, 0.0)), 1e-14);
  EXPECT_LT(std::abs(b[1] - Complex(3.0, 0.0)), 1e-14);
  EXPECT_NEAR(lu.determinant().real().to_double(), 5.0, 1e-12);
}

TEST(DenseLu, DeterminantWithPivotingSign) {
  // [0 1; 1 0]: det = -1, needs a row swap.
  DenseLu lu;
  ASSERT_TRUE(lu.factor({Complex(0), Complex(1), Complex(1), Complex(0)}, 2));
  EXPECT_NEAR(lu.determinant().real().to_double(), -1.0, 1e-15);
}

TEST(DenseLu, SingularDetected) {
  DenseLu lu;
  EXPECT_FALSE(lu.factor({Complex(1), Complex(2), Complex(2), Complex(4)}, 2));
  EXPECT_FALSE(lu.ok());
}

TEST(SparseLu, MatchesDenseOnRandomMatrices) {
  support::Rng rng(1234);
  for (const int n : {1, 2, 3, 5, 8, 13, 21, 34}) {
    const CompressedMatrix m = random_matrix(rng, n, 0.3);
    SparseLu sparse;
    DenseLu dense;
    ASSERT_TRUE(sparse.factor(m)) << n;
    ASSERT_TRUE(dense.factor(m)) << n;

    const auto b = random_vector(rng, n);
    std::vector<Complex> xs = b;
    std::vector<Complex> xd = b;
    sparse.solve(xs);
    dense.solve(xd);
    for (int i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(xs[static_cast<std::size_t>(i)] - xd[static_cast<std::size_t>(i)]),
                1e-9)
          << "n " << n << " i " << i;
    }

    const auto det_s = sparse.determinant();
    const auto det_d = dense.determinant();
    EXPECT_LT(std::abs(det_s.to_complex() - det_d.to_complex()),
              1e-9 * std::max(1.0, std::abs(det_d.to_complex())))
        << n;
  }
}

TEST(SparseLu, ResidualSmall) {
  support::Rng rng(99);
  const CompressedMatrix c = random_matrix(rng, 40, 0.15);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(c));
  const auto b = random_vector(rng, 40);
  std::vector<Complex> x = b;
  lu.solve(x);
  EXPECT_LT(residual_norm(c, x, b), 1e-10);
}

TEST(SparseLu, DeterminantOfDiagonal) {
  const Complex d[4] = {{2, 0}, {0, 3}, {-1, 0}, {0, -2}};
  std::vector<PatternStamp> m;
  for (int i = 0; i < 4; ++i) m.push_back(entry(i, i, d[i]));
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(4, m)));
  const Complex expected = d[0] * d[1] * d[2] * d[3];
  EXPECT_LT(std::abs(lu.determinant().to_complex() - expected), 1e-12);
}

TEST(SparseLu, DeterminantBeyondDoubleRange) {
  // 100 diagonal entries of 1e-8: det = 1e-800, unrepresentable in double
  // but exact in the scaled domain.
  const int n = 100;
  std::vector<PatternStamp> m;
  for (int i = 0; i < n; ++i) m.push_back(entry(i, i, {1e-8, 0.0}));
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  EXPECT_NEAR(lu.determinant().abs().log10_abs(), -800.0, 1e-6);
}

TEST(SparseLu, SingularMatrixRejected) {
  // row 2 empty -> structurally singular
  const CompressedMatrix m = at_i(3, {entry(0, 0, {1.0, 0.0}), entry(1, 1, {1.0, 0.0})});
  SparseLu lu;
  EXPECT_FALSE(lu.factor(m));
  EXPECT_FALSE(lu.ok());
}

TEST(SparseLu, NumericallySingularRejected) {
  const CompressedMatrix m = at_i(2, {entry(0, 0, {1.0, 0.0}), entry(0, 1, {2.0, 0.0}),
                                      entry(1, 0, {2.0, 0.0}), entry(1, 1, {4.0, 0.0})});
  SparseLu lu;
  EXPECT_FALSE(lu.factor(m));
}

TEST(SparseLu, PermutedIdentityTracksSign) {
  // Anti-diagonal identity of size 4: det = +1 (two transpositions).
  std::vector<PatternStamp> m;
  for (int i = 0; i < 4; ++i) m.push_back(entry(i, 3 - i, {1.0, 0.0}));
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(4, m)));
  EXPECT_NEAR(lu.determinant().real().to_double(), 1.0, 1e-15);

  std::vector<PatternStamp> m3;
  for (int i = 0; i < 3; ++i) m3.push_back(entry(i, 2 - i, {1.0, 0.0}));
  SparseLu lu3;
  ASSERT_TRUE(lu3.factor(at_i(3, m3)));
  EXPECT_NEAR(lu3.determinant().real().to_double(), -1.0, 1e-15);
}

TEST(SparseLu, TridiagonalFillInStaysLow) {
  const int n = 50;
  std::vector<PatternStamp> m;
  for (int i = 0; i < n; ++i) {
    m.push_back(entry(i, i, {4.0, 0.0}));
    if (i > 0) {
      m.push_back(entry(i, i - 1, {-1.0, 0.0}));
      m.push_back(entry(i - 1, i, {-1.0, 0.0}));
    }
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(n, m)));
  // Markowitz on a tridiagonal matrix should produce (near-)zero fill.
  EXPECT_LE(lu.fill_in(), 5u);
}


TEST(SparseLu, RefactorMatchesFullFactor) {
  support::Rng rng(555);
  const int n = 30;
  const std::vector<PatternStamp> base = test::random_entries(rng, n, 0.2);
  const CompressedMatrix pattern = at_i(n, base);

  SparseLu lu;
  ASSERT_TRUE(lu.factor(pattern));
  const Complex det_first = lu.determinant().to_complex();

  // Same pattern, perturbed values (same positions!): refactor must succeed
  // and match a from-scratch factorization.
  std::vector<PatternStamp> perturbed;
  for (const PatternStamp& stamp : base) {
    perturbed.push_back(entry(stamp.row, stamp.col,
                              Complex(stamp.conductance, stamp.capacitance) * Complex(1.1, -0.05)));
  }
  const CompressedMatrix perturbed_c = at_i(n, perturbed);
  ASSERT_EQ(perturbed_c.nonzeros(), pattern.nonzeros());
  ASSERT_TRUE(lu.refactor(perturbed_c));

  SparseLu fresh;
  ASSERT_TRUE(fresh.factor(perturbed_c));
  EXPECT_LT(std::abs(lu.determinant().to_complex() - fresh.determinant().to_complex()),
            1e-9 * std::abs(fresh.determinant().to_complex()));
  // And the solve agrees.
  const auto b = random_vector(rng, n);
  std::vector<Complex> x1 = b;
  std::vector<Complex> x2 = b;
  lu.solve(x1);
  fresh.solve(x2);
  for (int i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(x1[static_cast<std::size_t>(i)] - x2[static_cast<std::size_t>(i)]),
              1e-8);
  }
  // Determinant of the first matrix is untouched conceptually; sanity only.
  (void)det_first;
}

TEST(SparseLu, RefactorRejectsPatternChange) {
  support::Rng rng(556);
  const CompressedMatrix a = random_matrix(rng, 10, 0.3);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  const CompressedMatrix b = random_matrix(rng, 10, 0.5);  // different pattern
  if (b.nonzeros() != a.nonzeros()) {
    EXPECT_FALSE(lu.refactor(b));
  }
  const CompressedMatrix c = random_matrix(rng, 12, 0.3);  // different dim
  EXPECT_FALSE(lu.refactor(c));
}

TEST(SparseLu, RefactorWithoutPriorFactorFails) {
  support::Rng rng(557);
  const CompressedMatrix m = random_matrix(rng, 8, 0.3);
  SparseLu lu;
  EXPECT_FALSE(lu.refactor(m));
}

TEST(SparseLu, PlanSurvivesRefusedReplayOfAnotherPattern) {
  support::Rng rng(558);
  const CompressedMatrix a = random_matrix(rng, 10, 0.3);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(a));
  EXPECT_TRUE(lu.refactor(a));
  // Different dimension: the pattern check refuses.
  const CompressedMatrix b = random_matrix(rng, 12, 0.3);
  EXPECT_FALSE(lu.refactor(b));
  // The plan survives the refusal: the original pattern still replays.
  EXPECT_TRUE(lu.refactor(a));
}

TEST(SparseLu, RefactorDetectsDegradedPivot) {
  // Diagonal matrix; zero out one diagonal value while keeping the pattern
  // impossible — instead make it numerically tiny: refactor must refuse.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(healthy_3x3()));

  const CompressedMatrix degraded = degraded_3x3();
  EXPECT_FALSE(lu.refactor(degraded));
  // Full factor still handles it (picks a better pivot or reports singular
  // consistently).
  SparseLu fresh;
  EXPECT_TRUE(fresh.factor(degraded));
}

TEST(SparseLu, ReplayOrFactorKeepsTheFreshPlanAndTalliesEachAttempt) {
  // The one replay policy: a replay adds nothing to the fresh count; a
  // refused replay factors fresh once, keeps that plan and counts once; a
  // singular matrix counts its one attempt and leaves no plan.
  const CompressedMatrix healthy = healthy_3x3();
  const CompressedMatrix degraded = degraded_3x3();

  SparseLu lu;
  std::uint64_t fresh = 0;
  ASSERT_TRUE(lu.replay_or_factor(healthy, &fresh));
  EXPECT_EQ(fresh, 1u);
  const auto first_plan = lu.plan();
  ASSERT_TRUE(lu.replay_or_factor(healthy, &fresh));
  EXPECT_EQ(fresh, 1u);
  EXPECT_EQ(lu.plan(), first_plan);

  ASSERT_TRUE(lu.replay_or_factor(degraded, &fresh));
  EXPECT_EQ(fresh, 2u);
  EXPECT_NE(lu.plan(), first_plan);
  ASSERT_TRUE(lu.replay_or_factor(degraded, &fresh));
  EXPECT_EQ(fresh, 2u);

  // [[1, 1], [1, 1]]: elimination leaves an explicit zero pivot.
  const CompressedMatrix singular =
      at_i(2, {entry(0, 0, {1.0, 0.0}), entry(0, 1, {1.0, 0.0}), entry(1, 0, {1.0, 0.0}),
               entry(1, 1, {1.0, 0.0})});
  EXPECT_FALSE(lu.replay_or_factor(singular, &fresh));
  EXPECT_EQ(fresh, 3u);
  EXPECT_FALSE(lu.has_plan());

  // Singular to working precision: row 2 is 30 * row 0 + row 1 rounded in
  // double. At 1e-3 the elimination ends on an exact zero; a lower
  // threshold would reorder it onto a ~4e-20 pivot of rounding residue, so
  // none is tried and the matrix is singular.
  const double r0[] = {1e-4, 7e-5, 0.0};
  const double r1[] = {-1.0, 0.0, -3e-4};
  std::vector<PatternStamp> rounded;
  for (int c = 0; c < 3; ++c) {
    const double r2 = 30.0 * r0[c] + r1[c];
    if (r0[c] != 0.0) rounded.push_back(entry(0, c, {r0[c], 0.0}));
    if (r1[c] != 0.0) rounded.push_back(entry(1, c, {r1[c], 0.0}));
    if (r2 != 0.0) rounded.push_back(entry(2, c, {r2, 0.0}));
  }
  EXPECT_FALSE(lu.replay_or_factor(at_i(3, rounded), &fresh));
  EXPECT_EQ(fresh, 4u);
  EXPECT_FALSE(lu.has_plan());
}

TEST(SparseLu, RefactorOnSameValuesIsBitIdentical) {
  // The numeric replay executes the exact operation sequence of the full
  // factorization, so re-factoring the SAME values must reproduce every
  // result bit-for-bit (this is what makes cached sweeps regression-free) —
  // on a random pattern and on the extremes: a diagonal with no update at
  // all and a dense matrix where every step updates every later one.
  support::Rng rng(321);
  const auto check_roundtrip = [&rng](const CompressedMatrix& c) {
    SparseLu lu;
    ASSERT_TRUE(lu.factor(c));
    const Complex det_factor = lu.determinant().to_complex();
    const auto b = random_vector(rng, c.dim);
    std::vector<Complex> x_factor = b;
    lu.solve(x_factor);

    ASSERT_TRUE(lu.refactor(c));
    EXPECT_EQ(lu.determinant().to_complex(), det_factor);
    std::vector<Complex> x_refactor = b;
    lu.solve(x_refactor);
    EXPECT_EQ(x_refactor, x_factor);
  };

  check_roundtrip(random_matrix(rng, 25, 0.25));

  std::vector<PatternStamp> diagonal;
  for (int i = 0; i < 9; ++i) diagonal.push_back(entry(i, i, {1.5 + i, -0.25}));
  check_roundtrip(at_i(9, diagonal));

  std::vector<PatternStamp> dense;
  for (int r = 0; r < 7; ++r) {
    for (int c = 0; c < 7; ++c) {
      const double diag = r == c ? 5.0 : 0.0;
      dense.push_back(entry(r, c, {diag + rng.uniform(-1, 1), rng.uniform(-1, 1)}));
    }
  }
  check_roundtrip(at_i(7, dense));
}

// Plan reuse on the paper's actual matrices: evaluating the same circuit at
// a different sample point refactors against the cached plan and must agree
// with a from-scratch factorization to working precision. The engine always
// works on scaled matrices (paper §3.2), so evaluate at its first-scale
// heuristic (f = 1/mean(C), g = 1/mean(G)) where entries are balanced.
void expect_plan_reuse_agreement(const netlist::Circuit& circuit, const char* label) {
  const netlist::Circuit canonical = symref::netlist::canonicalize(circuit);
  const symref::mna::NodalSystem system(canonical);
  const auto caps = canonical.capacitor_values();
  const auto conds = canonical.conductance_values();
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 1.0 : sum / static_cast<double>(v.size());
  };
  const double f = 1.0 / mean(caps);
  const double g = 1.0 / mean(conds);
  const Complex s1(0.30901699437494745, 0.9510565162951535);
  const Complex s2(-0.80901699437494745, 0.5877852522924731);

  PatternedMatrix assembly(system.dim(), system.stamps());
  SparseLu lu;
  ASSERT_TRUE(lu.factor(assembly.assemble(s1, f, g))) << label;
  const CompressedMatrix a2 = assembly.assemble(s2, f, g);
  ASSERT_TRUE(lu.refactor(a2)) << label;

  SparseLu fresh;
  ASSERT_TRUE(fresh.factor(a2)) << label;
  const Complex det_reused = lu.determinant().to_complex();
  const Complex det_fresh = fresh.determinant().to_complex();
  EXPECT_LT(std::abs(det_reused - det_fresh), 1e-12 * std::abs(det_fresh)) << label;

  std::vector<Complex> rhs(static_cast<std::size_t>(system.dim()));
  rhs[0] = 1.0;
  std::vector<Complex> x1 = rhs;
  std::vector<Complex> x2 = rhs;
  lu.solve(x1);
  fresh.solve(x2);
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < x1.size(); ++i) {
    worst = std::max(worst, std::abs(x1[i] - x2[i]));
    scale = std::max(scale, std::abs(x2[i]));
  }
  EXPECT_LT(worst, 1e-12 * scale) << label;
}

TEST(SparseLu, PlanReuseAgreesOnLadderMatrix) {
  expect_plan_reuse_agreement(symref::circuits::rc_ladder(32), "rc_ladder(32)");
}

TEST(SparseLu, PlanReuseAgreesOnUa741Matrix) {
  expect_plan_reuse_agreement(symref::circuits::ua741(), "ua741");
}

TEST(SparseLu, DegradedPivotFallsBackToFullFactor) {
  // The caller contract: when refactor() refuses (pivot degraded), a fresh
  // factor() must recover, and the NEW plan must support further refactors.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(healthy_3x3()));

  const CompressedMatrix degraded_c = degraded_3x3();
  EXPECT_FALSE(lu.refactor(degraded_c));
  EXPECT_FALSE(lu.ok());
  ASSERT_TRUE(lu.factor(degraded_c));
  EXPECT_TRUE(lu.ok());
  EXPECT_TRUE(lu.refactor(degraded_c));
  EXPECT_FALSE(lu.determinant().is_zero());
}

TEST(SparseLu, MinAbsPivotMeaningful) {
  // dim 0: the empty pivot product has no smallest factor -> +infinity.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(at_i(0, {})));
  EXPECT_TRUE(std::isinf(lu.min_abs_pivot()));

  SparseLu lu2;
  ASSERT_TRUE(lu2.factor(at_i(2, {entry(0, 0, {3.0, 0.0}), entry(1, 1, {0.25, 0.0})})));
  EXPECT_NEAR(lu2.min_abs_pivot(), 0.25, 1e-15);
}

TEST(SparseLu, ClonesShareThePlanAndReplayIndependently) {
  // Copying a SparseLu clones only the numeric payload; the symbolic plan is
  // shared read-only. A clone's refactor must (a) match the original's
  // refactor bit for bit and (b) leave the original's numeric state — and
  // hence its determinant and solves — untouched. This is the per-thread
  // EvalContext contract of the batch evaluators.
  support::Rng rng(2026);
  const CompressedMatrix c = random_matrix(rng, 20, 0.25);
  SparseLu original;
  ASSERT_TRUE(original.factor(c));
  ASSERT_TRUE(original.has_plan());
  const Complex det_original = original.determinant().to_complex();

  // Perturbed values on the same pattern.
  CompressedMatrix perturbed = c;
  for (auto& value : perturbed.values) value *= Complex(1.01, 0.002);

  SparseLu clone = original;  // shares the plan, owns its numeric arrays
  ASSERT_TRUE(clone.has_plan());
  ASSERT_TRUE(clone.refactor(perturbed));
  const Complex det_clone = clone.determinant().to_complex();

  // The original never saw the perturbed values.
  EXPECT_EQ(original.determinant().to_complex(), det_original);

  // A second clone replaying the same values agrees bit for bit, and the
  // original refactoring the perturbed values agrees with both.
  SparseLu other = original;
  ASSERT_TRUE(other.refactor(perturbed));
  EXPECT_EQ(other.determinant().to_complex(), det_clone);
  ASSERT_TRUE(original.refactor(perturbed));
  EXPECT_EQ(original.determinant().to_complex(), det_clone);
}

TEST(SparseLu, RefactorAfterRefusedRefactorNeedsNoFactor) {
  // A refused replay (degraded pivot) keeps the plan: a later refactor with
  // healthy values must succeed and depend only on (plan, values) — the
  // history independence that makes per-point evaluation order irrelevant.
  const CompressedMatrix m = healthy_3x3();
  SparseLu lu;
  ASSERT_TRUE(lu.factor(m));
  const Complex det_healthy = lu.determinant().to_complex();

  EXPECT_FALSE(lu.refactor(degraded_3x3()));
  EXPECT_FALSE(lu.ok());
  EXPECT_TRUE(lu.has_plan());

  ASSERT_TRUE(lu.refactor(m));
  EXPECT_TRUE(lu.ok());
  EXPECT_EQ(lu.determinant().to_complex(), det_healthy);
}

// Parameterized sweep over sizes: solve + determinant sanity on circuit-like
// (diagonally dominant, sparse) matrices.
class SparseLuSweep : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuSweep, SolveAndDeterminantConsistent) {
  const int n = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(n) * 7919);
  const CompressedMatrix c = random_matrix(rng, n, 4.0 / n);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(c));
  const auto b = random_vector(rng, n);
  std::vector<Complex> x = b;
  lu.solve(x);
  EXPECT_LT(residual_norm(c, x, b), 1e-9);
  EXPECT_FALSE(lu.determinant().is_zero());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

}  // namespace
}  // namespace symref::sparse
