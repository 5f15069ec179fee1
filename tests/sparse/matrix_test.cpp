// Pattern-cached assembly and compressed storage.
#include "sparse/matrix.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace symref::sparse {
namespace {

using Complex = std::complex<double>;

TEST(CompressedMatrix, RowsSortedByColumn) {
  PatternedMatrix m(3, {{1, 2, 3.0, 0.0}, {1, 0, 1.0, 0.0}, {1, 1, 2.0, 0.0}});
  const CompressedMatrix& c = m.assemble(Complex(0.0, 0.0));
  ASSERT_EQ(c.row_start[1 + 1] - c.row_start[1], 3);
  EXPECT_EQ(c.cols[static_cast<std::size_t>(c.row_start[1])], 0);
  EXPECT_EQ(c.cols[static_cast<std::size_t>(c.row_start[1]) + 1], 1);
  EXPECT_EQ(c.cols[static_cast<std::size_t>(c.row_start[1]) + 2], 2);
  EXPECT_EQ(c.at(1, 2), Complex(3.0, 0.0));
  EXPECT_EQ(c.at(2, 2), Complex(0.0, 0.0));  // not stored
}

TEST(CompressedMatrix, MultiplyMatchesDense) {
  // Entry a + ib is the stamp {a, b} assembled at s = i.
  PatternedMatrix m(3, {{0, 0, 2.0, 0.0}, {0, 2, 0.0, 1.0}, {2, 1, -1.0, 0.0}});
  const CompressedMatrix& c = m.assemble(Complex(0.0, 1.0));
  const std::vector<Complex> x{{1.0, 0.0}, {2.0, 0.0}, {0.0, 3.0}};
  std::vector<Complex> y;
  c.multiply(x, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], Complex(2.0, 0.0) + Complex(0.0, 1.0) * Complex(0.0, 3.0));
  EXPECT_EQ(y[1], Complex(0.0, 0.0));
  EXPECT_EQ(y[2], Complex(-2.0, 0.0));
}

TEST(PatternedMatrix, MergesDuplicatesIntoSortedPattern) {
  // Two stamps at (0,0) merge; rows come out column-sorted.
  PatternedMatrix pattern(2, {{0, 0, 1.0, 0.0},
                              {0, 0, 2.0, 3.0},
                              {1, 1, 0.5, 0.0},
                              {1, 0, -0.5, 0.0},
                              {0, 1, 0.0, -3.0}});
  const CompressedMatrix& m = pattern.assemble(Complex(0.0, 2.0), 1.0, 1.0);
  EXPECT_EQ(m.dim, 2);
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_EQ(m.at(0, 0), Complex(3.0, 0.0) + Complex(0.0, 2.0) * 3.0);
  EXPECT_EQ(m.at(0, 1), Complex(0.0, 2.0) * -3.0);
  EXPECT_EQ(m.at(1, 0), Complex(-0.5, 0.0));
  EXPECT_EQ(m.at(1, 1), Complex(0.5, 0.0));
  const std::vector<int> cols_before = m.cols;

  // Re-assembly rewrites values only: the layout (and therefore any cached
  // factorization plan pointing at it) stays put, even where values become
  // exact zeros.
  const CompressedMatrix& again = pattern.assemble(Complex(0.0, 0.0), 1.0, 1.0);
  EXPECT_EQ(again.cols, cols_before);
  EXPECT_EQ(again.nonzeros(), 4u);
  EXPECT_EQ(again.at(0, 1), Complex(0.0, 0.0));  // structural zero is kept
  EXPECT_EQ(again.at(0, 0), Complex(3.0, 0.0));
}

TEST(PatternedMatrix, AppliesScaleFactors) {
  PatternedMatrix pattern(1, {{0, 0, 2.0, 5.0}});
  const double f = 1e9;
  const double g = 1e-2;
  const Complex s(0.25, -0.5);
  const CompressedMatrix& m = pattern.assemble(s, f, g);
  EXPECT_EQ(m.at(0, 0), g * 2.0 + s * (f * 5.0));
}

TEST(PatternedMatrix, RejectsNonFiniteStampsAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(PatternedMatrix(2, {{0, 0, nan, 0.0}}), std::invalid_argument);
  EXPECT_THROW(PatternedMatrix(2, {{0, 0, 0.0, inf}}), std::invalid_argument);
  EXPECT_THROW(PatternedMatrix(2, {{0, 1, -inf, 0.0}}), std::invalid_argument);
  // Duplicate stamps whose merged sum is non-finite (inf + -inf) are caught
  // too — validation runs on the merged values.
  EXPECT_THROW(PatternedMatrix(2, {{0, 0, inf, 0.0}, {0, 0, -inf, 0.0}}),
               std::invalid_argument);
}

TEST(PatternedMatrix, RejectsNonFiniteStampsAtRebindWithoutMutating) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PatternedMatrix pattern(2, {{0, 0, 2.0, 0.0}, {1, 1, 3.0, 1.0}});
  EXPECT_THROW(pattern.rebind(2, {{0, 0, nan, 0.0}, {1, 1, 4.0, 1.0}}),
               std::invalid_argument);
  // All-or-nothing: the matching finite stamp was not applied either.
  const CompressedMatrix& m = pattern.assemble(Complex(0.0, 0.0));
  EXPECT_EQ(m.at(0, 0), Complex(2.0, 0.0));
  EXPECT_EQ(m.at(1, 1), Complex(3.0, 0.0));
  // A clean rebind still works afterwards.
  EXPECT_TRUE(pattern.rebind(2, {{0, 0, 5.0, 0.0}, {1, 1, 6.0, 1.0}}));
  EXPECT_EQ(pattern.assemble(Complex(0.0, 0.0)).at(0, 0), Complex(5.0, 0.0));
}

}  // namespace
}  // namespace symref::sparse
