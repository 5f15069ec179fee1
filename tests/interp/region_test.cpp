// Valid-region extraction (paper eq. (12)).
#include "interp/region.h"

#include <gtest/gtest.h>

#include <vector>

namespace symref::interp {
namespace {

using numeric::ScaledDouble;

std::vector<ScaledDouble> profile_from_decades(const std::vector<double>& decades) {
  std::vector<ScaledDouble> out;
  out.reserve(decades.size());
  for (const double d : decades) {
    out.push_back(ScaledDouble(1.0) * ScaledDouble::exp10i(static_cast<std::int64_t>(d)));
  }
  return out;
}

TEST(Region, PeakAndContiguousSpan) {
  // Profile decades: 0, -2, -4, [peak 3], -1, -9, -20. sigma=6 -> window 7
  // decades below the peak (floor 10^-4): indices 0..4 qualify around the
  // peak; index 5 at -9 stops the span.
  const auto magnitudes = profile_from_decades({0, -2, -4, 3, -1, -9, -20});
  const ValidRegion region = find_valid_region(magnitudes, {6, {}});
  EXPECT_EQ(region.max_index, 3);
  EXPECT_NEAR(region.max_value.log10_abs(), 3.0, 1e-9);
  EXPECT_NEAR(region.error_floor.log10_abs(), 3.0 - 7.0, 1e-9);
  EXPECT_EQ(region.begin, 0);
  EXPECT_EQ(region.end, 4);
  EXPECT_EQ(region.width(), 5);
  EXPECT_TRUE(region.contains(2));
  EXPECT_FALSE(region.contains(5));
}

TEST(Region, ContiguityStopsAtGapEvenIfLaterValuesQualify) {
  // index 2 dips below the floor; index 3 is loud again but outside the
  // contiguous span.
  const auto magnitudes = profile_from_decades({10, 9, -20, 8});
  const ValidRegion region = find_valid_region(magnitudes, {6, {}});
  EXPECT_EQ(region.max_index, 0);
  EXPECT_EQ(region.begin, 0);
  EXPECT_EQ(region.end, 1);
}

TEST(Region, SigmaControlsWindowWidth) {
  const auto magnitudes = profile_from_decades({0, -3, -6, -9, -12});
  // sigma=6: floor = -7 -> indices 0,1,2.
  EXPECT_EQ(find_valid_region(magnitudes, {6, {}}).end, 2);
  // sigma=3: floor = -10 -> indices 0..3.
  EXPECT_EQ(find_valid_region(magnitudes, {3, {}}).end, 3);
  // sigma=12: floor = -1 -> only the peak.
  EXPECT_EQ(find_valid_region(magnitudes, {12, {}}).width(), 1);
}

TEST(Region, AllZeroProfile) {
  const std::vector<ScaledDouble> zeros(5);
  const ValidRegion region = find_valid_region(zeros);
  EXPECT_TRUE(region.empty());
  EXPECT_TRUE(region.max_value.is_zero());
}

TEST(Region, EmptyInput) {
  const ValidRegion region = find_valid_region({});
  EXPECT_TRUE(region.empty());
  EXPECT_EQ(region.max_index, -1);
}

TEST(Region, ExternalNoiseRaisesFloor) {
  const auto magnitudes = profile_from_decades({0, -3, -6, -9});
  RegionOptions options;
  options.sigma = 6;
  // Noise at 1e-8: floor becomes 1e-8 * 1e6 = 1e-2 -> only index 0 valid.
  options.external_noise = ScaledDouble(1.0) * ScaledDouble::exp10i(-8);
  const ValidRegion region = find_valid_region(magnitudes, options);
  EXPECT_EQ(region.begin, 0);
  EXPECT_EQ(region.end, 0);
  EXPECT_NEAR(region.error_floor.log10_abs(), -2.0, 1e-9);
}

TEST(Region, ExternalNoiseCanBuryEverything) {
  const auto magnitudes = profile_from_decades({-20, -21});
  RegionOptions options;
  options.external_noise = ScaledDouble(1.0) * ScaledDouble::exp10i(-10);
  const ValidRegion region = find_valid_region(magnitudes, options);
  EXPECT_TRUE(region.empty());
}

TEST(Region, ToStringReadable) {
  const auto magnitudes = profile_from_decades({0, 5, 0});
  const ValidRegion region = find_valid_region(magnitudes);
  EXPECT_NE(region.to_string().find("p1"), std::string::npos);
  EXPECT_EQ(find_valid_region({}).to_string(), "[empty]");
}

TEST(Region, PaperExampleFloorArithmetic) {
  // §3.2: max 1.28095e+124 with 6 digits -> floor 1.28095e+117.
  std::vector<ScaledDouble> magnitudes = {
      ScaledDouble(1.28095) * ScaledDouble::exp10i(124),
      ScaledDouble(2.13624) * ScaledDouble::exp10i(118),
      ScaledDouble(8.7689) * ScaledDouble::exp10i(116),
  };
  const ValidRegion region = find_valid_region(magnitudes, {6, {}});
  EXPECT_NEAR(region.error_floor.log10_abs(), 124.0 + std::log10(1.28095) - 7.0, 1e-9);
  EXPECT_TRUE(region.contains(1));   // 2.1e118 above 1.3e117
  EXPECT_FALSE(region.contains(2));  // 8.8e116 below
}

}  // namespace
}  // namespace symref::interp
