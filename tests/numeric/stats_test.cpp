// Statistics helpers behind the first-scale heuristic (§3.2).
#include "numeric/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace symref::numeric {
namespace {

TEST(Stats, Mean) {
  const std::vector<double> v{1.0, 2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1e-12, 1e-10};  // typical capacitor decade spread
  EXPECT_NEAR(geometric_mean(v), 1e-11, 1e-16);
  const std::vector<double> with_zero{0.0, 4.0, 9.0};
  EXPECT_NEAR(geometric_mean(with_zero), 6.0, 1e-12);  // zeros skipped
  EXPECT_DOUBLE_EQ(geometric_mean(std::vector<double>{0.0}), 0.0);
}

TEST(Stats, GeometricMeanUsesMagnitudes) {
  const std::vector<double> v{-4.0, 9.0};
  EXPECT_NEAR(geometric_mean(v), 6.0, 1e-12);
}

}  // namespace
}  // namespace symref::numeric
