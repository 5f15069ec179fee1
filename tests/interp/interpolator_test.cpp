// Unit-circle sampling, conjugate symmetry, deflation (eq. (17)).
#include "interp/interpolator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>

#include "numeric/dft.h"
#include "numeric/polynomial.h"
#include "support/random.h"

namespace symref::interp {
namespace {

using numeric::Polynomial;
using numeric::ScaledComplex;
using numeric::ScaledDouble;
using Complex = std::complex<double>;

TEST(Sampler, EvaluationCountWithSymmetry) {
  EXPECT_EQ(UnitCircleSampler(10, true).evaluation_points().size(), 6u);
  EXPECT_EQ(UnitCircleSampler(9, true).evaluation_points().size(), 5u);
  EXPECT_EQ(UnitCircleSampler(10, false).evaluation_points().size(), 10u);
  EXPECT_EQ(UnitCircleSampler(1, true).evaluation_points().size(), 1u);
  EXPECT_THROW(UnitCircleSampler(0), std::invalid_argument);
}

TEST(Sampler, ExpandReconstructsConjugatePoints) {
  // For a real-coefficient polynomial the expanded full set must equal
  // direct evaluation at all K points.
  support::Rng rng(11);
  for (const int K : {4, 5, 9, 10}) {
    std::vector<double> coeffs(static_cast<std::size_t>(K));
    for (auto& c : coeffs) c = rng.uniform(-1, 1);
    const Polynomial<double> p{std::vector<double>(coeffs)};

    const UnitCircleSampler sampler(K, true);
    std::vector<ScaledComplex> unique;
    for (const Complex& s : sampler.evaluation_points()) {
      unique.push_back(ScaledComplex(p.eval(s)));
    }
    const auto full = sampler.expand(unique);
    const auto points = numeric::unit_circle_points(static_cast<std::size_t>(K));
    ASSERT_EQ(full.size(), points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
      EXPECT_LT(std::abs(full[k].to_complex() - p.eval(points[k])), 1e-12)
          << "K " << K << " k " << k;
    }
  }
}

TEST(Sampler, SymmetricInterpolationRecoversCoefficients) {
  support::Rng rng(12);
  const int K = 11;
  std::vector<double> coeffs(static_cast<std::size_t>(K));
  for (auto& c : coeffs) c = rng.uniform(-5, 5);
  const Polynomial<double> p{std::vector<double>(coeffs)};
  const UnitCircleSampler sampler(K, true);
  std::vector<ScaledComplex> unique;
  for (const Complex& s : sampler.evaluation_points()) {
    unique.push_back(ScaledComplex(p.eval(s)));
  }
  const auto recovered = coefficients_from_samples(sampler.expand(unique));
  for (int i = 0; i < K; ++i) {
    EXPECT_NEAR(recovered[static_cast<std::size_t>(i)].real().to_double(),
                p.coeff(static_cast<std::size_t>(i)), 1e-11)
        << i;
  }
}

TEST(RealMagnitudes, TakesAbsoluteRealPart) {
  std::vector<ScaledComplex> values = {ScaledComplex(Complex(-3.0, 100.0)),
                                       ScaledComplex(Complex(2.0, -1.0))};
  const auto magnitudes = real_magnitudes(values);
  EXPECT_NEAR(magnitudes[0].to_double(), 3.0, 1e-15);
  EXPECT_NEAR(magnitudes[1].to_double(), 2.0, 1e-15);
}

TEST(Deflation, SubtractKnownLowCoefficients) {
  // P(s) = 2 + 3s + 5s^2 + 7s^3; knowing p0, p1, the residual after
  // deflation by s^2 is 5 + 7s.
  const Polynomial<double> p({2.0, 3.0, 5.0, 7.0});
  const std::vector<KnownCoefficient> known = {{0, ScaledDouble(2.0)},
                                               {1, ScaledDouble(3.0)}};
  const int K = 2;  // residual degree 1 -> two points suffice (eq. (17))
  const auto points = numeric::unit_circle_points(K);
  std::vector<ScaledComplex> samples;
  for (const Complex& s : points) {
    samples.push_back(deflate_sample(ScaledComplex(p.eval(s)), s, known, 2));
  }
  const auto recovered = numeric::coefficients_from_unit_circle_samples(samples);
  EXPECT_NEAR(recovered[0].real().to_double(), 5.0, 1e-12);
  EXPECT_NEAR(recovered[1].real().to_double(), 7.0, 1e-12);
}

TEST(Deflation, SubtractKnownHighCoefficients) {
  // Knowing p2, p3 of the same polynomial: residual (no shift) is 2 + 3s,
  // interpolated with 2 points.
  const Polynomial<double> p({2.0, 3.0, 5.0, 7.0});
  const std::vector<KnownCoefficient> known = {{2, ScaledDouble(5.0)},
                                               {3, ScaledDouble(7.0)}};
  const auto points = numeric::unit_circle_points(2);
  std::vector<ScaledComplex> samples;
  for (const Complex& s : points) {
    samples.push_back(deflate_sample(ScaledComplex(p.eval(s)), s, known, 0));
  }
  const auto recovered = numeric::coefficients_from_unit_circle_samples(samples);
  EXPECT_NEAR(recovered[0].real().to_double(), 2.0, 1e-12);
  EXPECT_NEAR(recovered[1].real().to_double(), 3.0, 1e-12);
}

TEST(Deflation, MiddleWindowBothSides) {
  // Know p0 and p3; seek p1, p2 with a two-point interpolation.
  const Polynomial<double> p({2.0, 3.0, 5.0, 7.0});
  const std::vector<KnownCoefficient> known = {{0, ScaledDouble(2.0)},
                                               {3, ScaledDouble(7.0)}};
  const auto points = numeric::unit_circle_points(2);
  std::vector<ScaledComplex> samples;
  for (const Complex& s : points) {
    samples.push_back(deflate_sample(ScaledComplex(p.eval(s)), s, known, 1));
  }
  const auto recovered = numeric::coefficients_from_unit_circle_samples(samples);
  EXPECT_NEAR(recovered[0].real().to_double(), 3.0, 1e-12);
  EXPECT_NEAR(recovered[1].real().to_double(), 5.0, 1e-12);
}

TEST(Deflation, PreservesConjugateSymmetry) {
  // Deflated samples of a real polynomial still satisfy
  // R(conj s) = conj R(s), so the sampler's expand() stays valid.
  const Polynomial<double> p({1.0, -2.0, 4.0, -8.0, 16.0});
  const std::vector<KnownCoefficient> known = {{0, ScaledDouble(1.0)},
                                               {4, ScaledDouble(16.0)}};
  const auto points = numeric::unit_circle_points(6);
  for (std::size_t k = 1; k < 3; ++k) {
    const auto a = deflate_sample(ScaledComplex(p.eval(points[k])), points[k], known, 1);
    const auto b = deflate_sample(ScaledComplex(p.eval(points[6 - k])), points[6 - k],
                                  known, 1);
    EXPECT_LT(std::abs(a.conj().to_complex() - b.to_complex()), 1e-12) << k;
  }
}

TEST(Deflation, OneArgPerSampleKeepsTheBitsOfThePerTermFormula) {
  // Reference: eq. (17) with std::arg(s_hat) taken once per known
  // coefficient and once more for the shift. Taking it once per sample
  // must change no bit of the residual.
  const auto per_term = [](const ScaledComplex& sample, Complex s_hat,
                           const std::vector<KnownCoefficient>& known, int shift) {
    ScaledComplex residual = sample;
    for (const KnownCoefficient& kc : known) {
      const double angle = std::arg(s_hat) * static_cast<double>(kc.index);
      residual -= ScaledComplex(kc.value) *
                  ScaledComplex(Complex(std::cos(angle), std::sin(angle)));
    }
    if (shift != 0) {
      const double angle = -std::arg(s_hat) * static_cast<double>(shift);
      residual *= ScaledComplex(Complex(std::cos(angle), std::sin(angle)));
    }
    return residual;
  };
  support::Rng rng(0xDEF1A7E);
  const auto scaled_value = [&rng] {
    return ScaledDouble::from_mantissa_exp(rng.uniform(-2, 2),
                                           static_cast<std::int64_t>(rng.uniform_index(4001)) -
                                               2000);
  };
  for (const int K : {37, 201, 257}) {
    // Seeded known lists up to index 600: sparse and dense, short and long.
    std::vector<std::vector<KnownCoefficient>> lists;
    for (const int length : {1, 8, 60, 200}) {
      std::vector<KnownCoefficient> known;
      for (int i = 0; i < length; ++i) {
        known.push_back({static_cast<int>(rng.uniform_index(601)), scaled_value()});
      }
      lists.push_back(std::move(known));
    }
    const auto points = numeric::unit_circle_points(static_cast<std::size_t>(K));
    for (std::size_t k = 0; k < points.size(); ++k) {
      const Complex s = points[k];
      const ScaledComplex sample = ScaledComplex::from_mantissa_exp(
          Complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), scaled_value().exponent2());
      for (int shift = 0; shift <= 40; ++shift) {
        // Every list meets every shift at many points.
        const auto& known = lists[(k + static_cast<std::size_t>(shift)) % lists.size()];
        const ScaledComplex expected = per_term(sample, s, known, shift);
        const ScaledComplex actual = deflate_sample(sample, s, known, shift);
        const Complex e = expected.mantissa();
        const Complex a = actual.mantissa();
        ASSERT_EQ(std::memcmp(&e, &a, sizeof(Complex)), 0)
            << "K " << K << " s " << s << " known " << known.size() << " shift " << shift;
        ASSERT_EQ(expected.exponent2(), actual.exponent2())
            << "K " << K << " s " << s << " known " << known.size() << " shift " << shift;
      }
    }
  }
}

TEST(Deflation, ExtendedRangeKnowns) {
  // Known coefficients far outside double range still subtract exactly.
  Polynomial<ScaledDouble> p;
  p.set_coeff(0, ScaledDouble(1.0) * ScaledDouble::exp10i(500));
  p.set_coeff(1, ScaledDouble(3.0));
  const std::vector<KnownCoefficient> known = {
      {0, ScaledDouble(1.0) * ScaledDouble::exp10i(500)}};
  const auto points = numeric::unit_circle_points(1);
  const ScaledComplex sample = numeric::eval_scaled(p, points[0]);
  const ScaledComplex residual = deflate_sample(sample, points[0], known, 1);
  // Residual should be p1 = 3 — but the sample itself already rounded the
  // +3 away against the 1e500 term (16-digit mantissa), so the deflated
  // value is either exactly 0 or leftover noise ~1e484. Either way it does
  // NOT recover p1 — precisely the effect the engine's noise accounting
  // guards against.
  EXPECT_TRUE(residual.is_zero() || residual.abs().log10_abs() > 480.0);
  EXPECT_FALSE(!residual.is_zero() && std::fabs(residual.abs().to_double() - 3.0) < 1.0);
}

}  // namespace
}  // namespace symref::interp
