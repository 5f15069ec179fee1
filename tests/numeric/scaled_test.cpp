// ScaledDouble / ScaledComplex: extended-exponent arithmetic.
#include "numeric/scaled.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "support/random.h"

namespace symref::numeric {
namespace {

TEST(ScaledDouble, DefaultIsZero) {
  ScaledDouble z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_double(), 0.0);
}

TEST(ScaledDouble, NormalizationInvariant) {
  for (const double v : {1.0, -1.0, 0.5, 3.75, -1234.5, 1e-300, -1e300, 7e-12}) {
    const ScaledDouble s(v);
    EXPECT_GE(std::fabs(s.mantissa()), 1.0) << v;
    EXPECT_LT(std::fabs(s.mantissa()), 2.0) << v;
    EXPECT_DOUBLE_EQ(s.to_double(), v);
  }
}

TEST(ScaledDouble, NegativeZeroCanonicalized) {
  const ScaledDouble a(1.0);
  const ScaledDouble diff = a - a;
  EXPECT_TRUE(diff.is_zero());
  EXPECT_EQ(diff, ScaledDouble(0.0));
}

TEST(ScaledDouble, MultiplicationMatchesDoubleInRange) {
  support::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.sign() * rng.log_uniform(1e-20, 1e20);
    const double b = rng.sign() * rng.log_uniform(1e-20, 1e20);
    const ScaledDouble result = ScaledDouble(a) * ScaledDouble(b);
    EXPECT_NEAR(result.to_double(), a * b, std::fabs(a * b) * 1e-15);
  }
}

TEST(ScaledDouble, AdditionMatchesDoubleInRange) {
  support::Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.sign() * rng.log_uniform(1e-5, 1e5);
    const double b = rng.sign() * rng.log_uniform(1e-5, 1e5);
    const ScaledDouble result = ScaledDouble(a) + ScaledDouble(b);
    EXPECT_NEAR(result.to_double(), a + b, (std::fabs(a) + std::fabs(b)) * 1e-15);
  }
}

TEST(ScaledDouble, DivisionMatchesDoubleInRange) {
  support::Rng rng(44);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.sign() * rng.log_uniform(1e-10, 1e10);
    const double b = rng.sign() * rng.log_uniform(1e-10, 1e10);
    const ScaledDouble result = ScaledDouble(a) / ScaledDouble(b);
    EXPECT_NEAR(result.to_double(), a / b, std::fabs(a / b) * 1e-15);
  }
}

TEST(ScaledDouble, ProductsFarBeyondDoubleRange) {
  // (1e9)^48 * (1e-9)^48 == 1 exactly in the scaled domain; each factor
  // alone is 1e432 / 1e-432, far outside IEEE double.
  const ScaledDouble big = ScaledDouble::pow(ScaledDouble(1e9), 48);
  const ScaledDouble small = ScaledDouble::pow(ScaledDouble(1e-9), 48);
  EXPECT_NEAR(big.log10_abs(), 432.0, 1e-9);
  EXPECT_NEAR(small.log10_abs(), -432.0, 1e-9);
  const ScaledDouble unity = big * small;
  EXPECT_NEAR(unity.to_double(), 1.0, 1e-12);
}

TEST(ScaledDouble, PaperMagnitudes) {
  // Table 3 of the paper reaches -1.1215e-522; such values must round-trip
  // through the scaled representation.
  const ScaledDouble tiny = ScaledDouble(-1.1215) * ScaledDouble::exp10i(-522);
  EXPECT_NEAR(tiny.log10_abs(), -522.0 + std::log10(1.1215), 1e-9);
  EXPECT_EQ(tiny.sign(), -1);
  EXPECT_EQ(tiny.decimal_exponent(), -522);
  EXPECT_EQ(tiny.to_double(), 0.0);  // underflows a plain double
}

TEST(ScaledDouble, AdditionAlignsDistantExponents) {
  const ScaledDouble big = ScaledDouble::exp10i(100);
  const ScaledDouble small = ScaledDouble::exp10i(-100);
  const ScaledDouble sum = big + small;
  EXPECT_NEAR((sum / big).to_double(), 1.0, 1e-15);  // small vanishes
  const ScaledDouble near = ScaledDouble::exp10i(100) * ScaledDouble(1e-10);
  const ScaledDouble sum2 = big + near;
  EXPECT_NEAR((sum2 / big).to_double(), 1.0 + 1e-10, 1e-14);
}

TEST(ScaledDouble, ComparisonOrdering) {
  const ScaledDouble values[] = {
      ScaledDouble(-3.0) * ScaledDouble::exp10i(50), ScaledDouble(-1.0),
      ScaledDouble(0.0), ScaledDouble::exp10i(-200), ScaledDouble(2.0),
      ScaledDouble::exp10i(300)};
  for (std::size_t i = 0; i + 1 < std::size(values); ++i) {
    EXPECT_LT(values[i], values[i + 1]) << i;
    EXPECT_GT(values[i + 1], values[i]) << i;
    EXPECT_LE(values[i], values[i + 1]) << i;
    EXPECT_GE(values[i + 1], values[i + 1]) << i;
  }
}

TEST(ScaledDouble, PowNegativeExponent) {
  const ScaledDouble inv = ScaledDouble::pow(ScaledDouble(10.0), -3);
  EXPECT_NEAR(inv.to_double(), 1e-3, 1e-18);
  EXPECT_NEAR(ScaledDouble::pow(ScaledDouble(2.0), 0).to_double(), 1.0, 0.0);
}

TEST(ScaledDouble, Exp10iMatchesPow10) {
  for (int k = -300; k <= 300; k += 37) {
    EXPECT_NEAR(ScaledDouble::exp10i(k).log10_abs(), static_cast<double>(k), 1e-9) << k;
  }
}

TEST(ScaledDouble, ToStringFormatsLikeThePaper) {
  const ScaledDouble value = ScaledDouble(-1.28095) * ScaledDouble::exp10i(124);
  EXPECT_EQ(value.to_string(6), "-1.28095e+124");
  EXPECT_EQ(ScaledDouble(0.0).to_string(), "0");
  const ScaledDouble tiny = ScaledDouble(2.23949) * ScaledDouble::exp10i(-329);
  EXPECT_EQ(tiny.to_string(6), "2.23949e-329");
}

TEST(ScaledDouble, ToStringRoundingEdge) {
  // 9.99999999 with few digits must carry into the next decade.
  const ScaledDouble value(9.99999999);
  EXPECT_EQ(value.to_string(3), "1.00e+1");
}

TEST(ScaledDouble, ToStringClampsSignificantDigits) {
  // At least one digit is printed (printf ignores a negative precision) and
  // at most the 17 a double carries (wider requests used to truncate).
  const ScaledDouble value = ScaledDouble(-1.28095) * ScaledDouble::exp10i(124);
  EXPECT_EQ(value.to_string(1), "-1e+124");
  EXPECT_EQ(value.to_string(0), "-1e+124");
  EXPECT_EQ(value.to_string(-4), "-1e+124");
  EXPECT_EQ(ScaledDouble(9.7).to_string(0), "1e+1");
  const std::string widest = value.to_string(17);
  EXPECT_EQ(widest.find('e') - widest.find('.') - 1, 16u) << widest;
  EXPECT_EQ(value.to_string(63), widest);
  EXPECT_EQ(value.to_string(1000), widest);
}

TEST(ScaledDouble, RatioAndRelativeDifference) {
  const ScaledDouble a(3.0);
  const ScaledDouble b(-6.0);
  EXPECT_NEAR(ratio_abs(a, b), 0.5, 1e-15);
  EXPECT_NEAR(relative_difference(a, ScaledDouble(3.0 * (1 + 1e-9))), 1e-9, 1e-12);
  EXPECT_EQ(relative_difference(ScaledDouble(0.0), ScaledDouble(0.0)), 0.0);
  EXPECT_EQ(ratio_abs(a, ScaledDouble(0.0)), HUGE_VAL);
}

TEST(ScaledComplex, ConstructionAndParts) {
  const ScaledComplex z(std::complex<double>(3.0, -4.0));
  EXPECT_NEAR(z.real().to_double(), 3.0, 1e-15);
  EXPECT_NEAR(z.imag().to_double(), -4.0, 1e-15);
  EXPECT_NEAR(z.abs().to_double(), 5.0, 1e-14);
  EXPECT_NEAR(z.conj().imag().to_double(), 4.0, 1e-15);
}

TEST(ScaledComplex, NormalizationInvariant) {
  const ScaledComplex z(std::complex<double>(1e-200, -3e-200));
  const double peak = std::max(std::fabs(z.mantissa().real()), std::fabs(z.mantissa().imag()));
  EXPECT_GE(peak, 1.0);
  EXPECT_LT(peak, 2.0);
  EXPECT_NEAR(z.real().to_double(), 1e-200, 1e-213);
}

TEST(ScaledComplex, ArithmeticMatchesComplexInRange) {
  support::Rng rng(45);
  for (int i = 0; i < 200; ++i) {
    const std::complex<double> a(rng.uniform(-10, 10), rng.uniform(-10, 10));
    const std::complex<double> b(rng.uniform(-10, 10), rng.uniform(-10, 10));
    if (std::abs(b) < 1e-6) continue;
    EXPECT_LT(std::abs((ScaledComplex(a) * ScaledComplex(b)).to_complex() - a * b), 1e-13);
    EXPECT_LT(std::abs((ScaledComplex(a) + ScaledComplex(b)).to_complex() - (a + b)), 1e-13);
    EXPECT_LT(std::abs((ScaledComplex(a) - ScaledComplex(b)).to_complex() - (a - b)), 1e-13);
    EXPECT_LT(std::abs((ScaledComplex(a) / ScaledComplex(b)).to_complex() - a / b), 1e-12);
  }
}

TEST(ScaledComplex, ProductChainBeyondDoubleRange) {
  // Multiply 200 factors of magnitude 1e10: |result| = 1e2000.
  ScaledComplex product(std::complex<double>(1.0, 0.0));
  for (int i = 0; i < 200; ++i) {
    product *= ScaledComplex(std::complex<double>(0.0, 1e10));
  }
  EXPECT_NEAR(product.abs().log10_abs(), 2000.0, 1e-6);
  // i^200 = (i^4)^50 = 1: result should be purely real positive.
  EXPECT_NEAR(product.imag().to_double() == 0.0 ? 0.0 : 1.0, 0.0, 1e-9);
  EXPECT_GT(product.real().sign(), 0);
}

TEST(ScaledComplex, FromScaledDouble) {
  const ScaledDouble huge = ScaledDouble::exp10i(1000);
  const ScaledComplex z(huge);
  EXPECT_NEAR(z.real().log10_abs(), 1000.0, 1e-9);
  EXPECT_TRUE(z.imag().is_zero());
}

TEST(ScaledDouble, MixedSignComparisons) {
  const ScaledDouble neg_huge = ScaledDouble(-1.0) * ScaledDouble::exp10i(300);
  const ScaledDouble neg_tiny = ScaledDouble(-1.0) * ScaledDouble::exp10i(-300);
  const ScaledDouble pos_tiny = ScaledDouble::exp10i(-300);
  EXPECT_LT(neg_huge, neg_tiny);
  EXPECT_LT(neg_tiny, ScaledDouble(0.0));
  EXPECT_LT(ScaledDouble(0.0), pos_tiny);
  EXPECT_LT(neg_huge, pos_tiny);
}

TEST(ScaledDouble, DecimalExponentBoundaries) {
  EXPECT_EQ(ScaledDouble(1.0).decimal_exponent(), 0);
  EXPECT_EQ(ScaledDouble(9.99).decimal_exponent(), 0);
  EXPECT_EQ(ScaledDouble(10.0).decimal_exponent(), 1);
  EXPECT_EQ(ScaledDouble(0.1).decimal_exponent(), -1);
}

TEST(ScaledDouble, SubtractionOfNearEqual) {
  // Catastrophic cancellation still yields the exact double difference.
  const double a = 1.0 + 1e-12;
  const ScaledDouble diff = ScaledDouble(a) - ScaledDouble(1.0);
  EXPECT_NEAR(diff.to_double(), a - 1.0, 1e-27);
}

TEST(ScaledComplex, DivisionBySmallMagnitude) {
  const ScaledComplex num(std::complex<double>(1.0, 1.0));
  const ScaledComplex den = ScaledComplex(ScaledDouble::exp10i(-400));
  const ScaledComplex q = num / den;
  EXPECT_NEAR(q.abs().log10_abs(), 400.0 + std::log10(std::sqrt(2.0)), 1e-9);
}

TEST(ScaledComplex, ToStringShowsBothParts) {
  const ScaledComplex z(std::complex<double>(-2.5, 3.5));
  const std::string text = z.to_string(3);
  EXPECT_NE(text.find("-2.50"), std::string::npos);
  EXPECT_NE(text.find("j3.50"), std::string::npos);
}

// Property sweep: round-trip via mantissa/exponent for many magnitudes.
class ScaledDoubleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ScaledDoubleRoundTrip, MantissaExponentRoundTrip) {
  const int decade = GetParam();
  const ScaledDouble value = ScaledDouble(1.7) * ScaledDouble::exp10i(decade);
  const ScaledDouble rebuilt =
      ScaledDouble::from_mantissa_exp(value.mantissa(), value.exponent2());
  EXPECT_EQ(value, rebuilt);
  EXPECT_NEAR(value.log10_abs() - std::log10(1.7), static_cast<double>(decade), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Decades, ScaledDoubleRoundTrip,
                         ::testing::Values(-522, -300, -100, -10, -1, 0, 1, 10, 100, 300,
                                           522, 1000, -1000));

}  // namespace
}  // namespace symref::numeric
