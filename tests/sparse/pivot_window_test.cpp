// min_abs_pivot() and determinant() at the edges: trivial dimensions, and
// pivots outside the (2^-256, 2^256) deferred-scaling window of
// scaled_pivot_product — where the pivot product must fold into the
// extended-range ScaledComplex accumulator instead of multiplying through
// the double accumulator. The probe values 2^±300 sit outside that window
// but comfortably inside the ~1e±150 range where replay_abs is exact, so
// min_abs_pivot stays bit-exact while the determinant exercises the
// eagerly-normalized fold path.
#include "sparse/lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "test_matrices.h"

namespace symref::sparse {
namespace {

CompressedMatrix diagonal(const std::vector<double>& values) {
  std::vector<PatternStamp> entries;
  for (std::size_t i = 0; i < values.size(); ++i) {
    entries.push_back(test::entry(static_cast<int>(i), static_cast<int>(i), {values[i], 0.0}));
  }
  return test::at_i(static_cast<int>(values.size()), entries);
}

TEST(PivotWindow, DimensionOneFactorAndRefactor) {
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({3.5})));
  EXPECT_EQ(lu.min_abs_pivot(), 3.5);
  EXPECT_EQ(lu.determinant().real().to_double(), 3.5);
  EXPECT_EQ(lu.determinant().imag().to_double(), 0.0);

  // A replay with a new value recomputes both from the replayed pivot.
  ASSERT_TRUE(lu.refactor(diagonal({-0.25})));
  EXPECT_EQ(lu.min_abs_pivot(), 0.25);
  EXPECT_EQ(lu.determinant().real().to_double(), -0.25);
}

TEST(PivotWindow, DimensionZeroIsTheEmptyProduct) {
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({})));
  // No pivots: the smallest-|pivot| query has no candidate (+infinity), and
  // the empty pivot product is exactly 1.
  EXPECT_EQ(lu.min_abs_pivot(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(lu.determinant().real().to_double(), 1.0);
  EXPECT_EQ(lu.determinant().imag().to_double(), 0.0);
}

TEST(PivotWindow, AllPivotsAboveTheWindowFoldExactly) {
  // Four pivots of 2^300: each factor is outside the window, so every
  // elementary product takes the normalized ScaledComplex step. The product
  // 2^1200 overflows double; the extended-range result is exact.
  const double big = std::ldexp(1.0, 300);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({big, big, big, big})));
  EXPECT_EQ(lu.min_abs_pivot(), big);
  const numeric::ScaledComplex det = lu.determinant();
  EXPECT_EQ(det.real().mantissa(), 1.0);
  EXPECT_EQ(det.real().exponent2(), 1200);
  EXPECT_TRUE(det.imag().is_zero());
}

TEST(PivotWindow, AllPivotsBelowTheWindowFoldExactly) {
  // 2^-1200 underflows double to zero; the fold keeps every bit.
  const double tiny = std::ldexp(1.0, -300);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({tiny, tiny, tiny, tiny})));
  EXPECT_EQ(lu.min_abs_pivot(), tiny);
  const numeric::ScaledComplex det = lu.determinant();
  EXPECT_EQ(det.real().mantissa(), 1.0);
  EXPECT_EQ(det.real().exponent2(), -1200);
}

TEST(PivotWindow, MixedPivotsCrossTheWindowInBothDirections) {
  // Alternating 2^300 / 2^-300 pivots drag the accumulator out both sides
  // of the window; the powers of two cancel exactly, leaving the one
  // in-window pivot as the determinant.
  const double big = std::ldexp(1.0, 300);
  const double tiny = std::ldexp(1.0, -300);
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({big, tiny, big, tiny, 3.0})));
  EXPECT_EQ(lu.min_abs_pivot(), tiny);
  const numeric::ScaledComplex det = lu.determinant();
  EXPECT_EQ(det.real().to_double(), 3.0);
  EXPECT_TRUE(det.imag().is_zero());
}

TEST(PivotWindow, RefactorRecomputesAcrossTheWindowBoundary) {
  // The same plan replayed with values that moved from in-window to
  // out-of-window: min_abs_pivot and determinant are statistics of the
  // CURRENT pivots, not the planned ones.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(diagonal({1.0, 2.0, 4.0})));
  EXPECT_EQ(lu.min_abs_pivot(), 1.0);
  EXPECT_EQ(lu.determinant().real().to_double(), 8.0);

  const double big = std::ldexp(1.0, 300);
  const double tiny = std::ldexp(1.0, -300);
  ASSERT_TRUE(lu.refactor(diagonal({big, tiny, 4.0})));
  EXPECT_EQ(lu.min_abs_pivot(), tiny);
  EXPECT_EQ(lu.determinant().real().to_double(), 4.0);
}

}  // namespace
}  // namespace symref::sparse
