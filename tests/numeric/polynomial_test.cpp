// Polynomial<T>: arithmetic, evaluation, scaling transforms.
#include "numeric/polynomial.h"

#include <gtest/gtest.h>

#include <complex>

namespace symref::numeric {
namespace {

TEST(Polynomial, DegreeAndTrim) {
  Polynomial<double> p({1.0, 2.0, 0.0, 0.0});
  EXPECT_EQ(p.degree(), 1);
  EXPECT_EQ(p.coeff(0), 1.0);
  EXPECT_EQ(p.coeff(5), 0.0);
  EXPECT_TRUE(Polynomial<double>{}.is_zero());
  EXPECT_EQ(Polynomial<double>{}.degree(), -1);
}

TEST(Polynomial, SetCoeffGrows) {
  Polynomial<double> p;
  p.set_coeff(3, 5.0);
  EXPECT_EQ(p.degree(), 3);
  EXPECT_EQ(p.coeff(3), 5.0);
  p.set_coeff(3, 0.0);
  EXPECT_TRUE(p.is_zero());
}

TEST(Polynomial, HornerEvaluation) {
  const Polynomial<double> p({1.0, -2.0, 3.0});  // 1 - 2s + 3s^2
  EXPECT_DOUBLE_EQ(p.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.eval(2.0), 1.0 - 4.0 + 12.0);
  const std::complex<double> s(0.0, 1.0);
  const std::complex<double> expected =
      1.0 - 2.0 * s + 3.0 * s * s;  // 1 - 3 - 2i
  EXPECT_LT(std::abs(p.eval(s) - expected), 1e-15);
}

TEST(Polynomial, Addition) {
  const Polynomial<double> a({1.0, 2.0});
  const Polynomial<double> b({0.0, -2.0, 4.0});
  const Polynomial<double> sum = a + b;
  EXPECT_EQ(sum.degree(), 2);
  EXPECT_EQ(sum.coeff(0), 1.0);
  EXPECT_EQ(sum.coeff(1), 0.0);
  EXPECT_EQ(sum.coeff(2), 4.0);
}

TEST(Polynomial, CancellationTrims) {
  const Polynomial<double> a({1.0, 2.0, 3.0});
  const Polynomial<double> b({0.0, 0.0, 3.0});
  EXPECT_EQ((a - b).degree(), 1);
}

TEST(Polynomial, Multiplication) {
  const Polynomial<double> a({1.0, 1.0});   // 1 + s
  const Polynomial<double> b({1.0, -1.0});  // 1 - s
  const Polynomial<double> prod = a * b;    // 1 - s^2
  EXPECT_EQ(prod.degree(), 2);
  EXPECT_EQ(prod.coeff(0), 1.0);
  EXPECT_EQ(prod.coeff(1), 0.0);
  EXPECT_EQ(prod.coeff(2), -1.0);
  EXPECT_TRUE((a * Polynomial<double>{}).is_zero());
}

TEST(Polynomial, Derivative) {
  const Polynomial<double> p({5.0, 3.0, 2.0, 1.0});
  const Polynomial<double> d = p.derivative();
  EXPECT_EQ(d.coeff(0), 3.0);
  EXPECT_EQ(d.coeff(1), 4.0);
  EXPECT_EQ(d.coeff(2), 3.0);
  EXPECT_TRUE(Polynomial<double>({7.0}).derivative().is_zero());
}

TEST(Polynomial, ScaledConversionRoundTrip) {
  const Polynomial<double> p({1e-30, -2e10, 3.5});
  const Polynomial<ScaledDouble> s = to_scaled(p);
  const Polynomial<double> back = to_double(s);
  EXPECT_EQ(back.degree(), 2);
  for (int i = 0; i <= 2; ++i) {
    EXPECT_DOUBLE_EQ(back.coeff(static_cast<std::size_t>(i)),
                     p.coeff(static_cast<std::size_t>(i)));
  }
}

TEST(Polynomial, EvalScaledAvoidsOverflow) {
  // Coefficients like the paper's denormalized values: p0 = 1e-90,
  // p1 = 1e-100; at s = j*1e9 the term p1*s is 1e-91 — representable, but a
  // naive double Horner on the raw coefficients would underflow p1 first.
  Polynomial<ScaledDouble> p;
  p.set_coeff(0, ScaledDouble(1.0) * ScaledDouble::exp10i(-90));
  p.set_coeff(1, ScaledDouble(1.0) * ScaledDouble::exp10i(-100));
  const ScaledComplex value = eval_scaled(p, std::complex<double>(0.0, 1e9));
  EXPECT_NEAR(value.real().log10_abs(), -90.0, 1e-6);
  EXPECT_NEAR(value.imag().log10_abs(), -91.0, 1e-6);
}

TEST(Polynomial, EvalScaledFarBeyondDoubleRange) {
  // P(s) = 1e-500 * s^2 evaluated at |s| = 1e100: result 1e-300.
  Polynomial<ScaledDouble> p;
  p.set_coeff(2, ScaledDouble(1.0) * ScaledDouble::exp10i(-500));
  const ScaledComplex value = eval_scaled(p, std::complex<double>(1e100, 0.0));
  EXPECT_NEAR(value.real().log10_abs(), -300.0, 1e-6);
}

TEST(Polynomial, ScaledArithmetic) {
  Polynomial<ScaledDouble> a;
  a.set_coeff(0, ScaledDouble(1.0));
  a.set_coeff(1, ScaledDouble::exp10i(-200));
  Polynomial<ScaledDouble> b = a;
  const Polynomial<ScaledDouble> sum = a + b;
  EXPECT_NEAR(sum.coeff(1).log10_abs(), -200.0 + std::log10(2.0), 1e-9);
  const Polynomial<ScaledDouble> prod = a * b;
  EXPECT_NEAR(prod.coeff(2).log10_abs(), -400.0, 1e-9);
}

TEST(Polynomial, ComplexCoefficients) {
  using C = std::complex<double>;
  const Polynomial<C> p({C(1, 1), C(0, -2)});
  const C value = p.eval(C(2.0, 0.0));
  EXPECT_LT(std::abs(value - (C(1, 1) + C(0, -2) * 2.0)), 1e-15);
  const Polynomial<C> sq = p * p;
  EXPECT_EQ(sq.degree(), 2);
  EXPECT_LT(std::abs(sq.coeff(2) - C(0, -2) * C(0, -2)), 1e-15);
}

TEST(Polynomial, EvalScaledAtZeroAndRealAxis) {
  Polynomial<ScaledDouble> p;
  p.set_coeff(0, ScaledDouble(5.0));
  p.set_coeff(2, ScaledDouble(-1.0));
  EXPECT_NEAR(eval_scaled(p, {0.0, 0.0}).real().to_double(), 5.0, 1e-15);
  EXPECT_NEAR(eval_scaled(p, {2.0, 0.0}).real().to_double(), 1.0, 1e-14);
}

}  // namespace
}  // namespace symref::numeric
