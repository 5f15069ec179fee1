// DFT / IDFT and the unit-circle coefficient recovery (paper eq. (5)).
#include "numeric/dft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "numeric/kahan.h"
#include "numeric/polynomial.h"
#include "support/random.h"

namespace symref::numeric {
namespace {

using Complex = std::complex<double>;

// Reference for the direct path: one exact-angle cos/sin pair per (j, k)
// and a compensated sum whose magnitude branches on the sign. The library's
// twiddle table, its index arithmetic and its branch-free magnitude must
// give the same bits as this loop for every input.
namespace per_pair {

class KahanSum {
 public:
  void add(const Complex& value) {
    const Complex t = sum_ + value;
    if (magnitude(sum_) >= magnitude(value)) {
      compensation_ += (sum_ - t) + value;
    } else {
      compensation_ += (value - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] Complex value() const { return sum_ + compensation_; }

 private:
  static double magnitude(double v) { return v < 0 ? -v : v; }
  static double magnitude(const Complex& v) {
    const double re = magnitude(v.real());
    const double im = magnitude(v.imag());
    return re > im ? re : im;
  }
  Complex sum_{};
  Complex compensation_{};
};

/// The extended-range recovery's alignment: every sample at the largest
/// exponent, those more than 1100 binary orders below it flushed to zero.
std::vector<Complex> align(const std::vector<ScaledComplex>& samples, std::int64_t& max_exp) {
  max_exp = 0;
  bool any_nonzero = false;
  for (const auto& sample : samples) {
    if (sample.is_zero()) continue;
    max_exp = any_nonzero ? std::max(max_exp, sample.exponent2()) : sample.exponent2();
    any_nonzero = true;
  }
  std::vector<Complex> aligned(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].is_zero()) continue;
    const std::int64_t gap = max_exp - samples[i].exponent2();
    aligned[i] = gap > 1100 ? Complex()
                            : samples[i].mantissa() * std::ldexp(1.0, static_cast<int>(-gap));
  }
  return aligned;
}

struct Expected {
  std::vector<Complex> dft, idft, coefficients;
  std::vector<ScaledComplex> scaled_coefficients;
};

/// dft(x), idft(x) and both coefficient recoveries (of x and of `scaled`)
/// by the per-pair loop. twiddle(j*k, n, sign) is {cos(angle), sign *
/// sin(angle)}, so one cos/sin pair per (j, k) serves all three sums.
Expected transforms(const std::vector<Complex>& x, const std::vector<ScaledComplex>& scaled) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const std::size_t n = x.size();
  std::int64_t max_exp = 0;
  const std::vector<Complex> y = align(scaled, max_exp);
  Expected out{std::vector<Complex>(n), std::vector<Complex>(n), {}, {}};
  std::vector<Complex> forward_y(n);
  for (std::size_t k = 0; k < n; ++k) {
    KahanSum forward;
    KahanSum inverse;
    KahanSum aligned;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t num = static_cast<std::uint64_t>(j) * k;
      const double angle = kTwoPi * static_cast<double>(num % n) / static_cast<double>(n);
      const double c = std::cos(angle);
      const double s = std::sin(angle);
      forward.add(x[j] * Complex(c, -1 * s));
      inverse.add(x[j] * Complex(c, +1 * s));
      aligned.add(y[j] * Complex(c, -1 * s));
    }
    out.dft[k] = forward.value();
    out.idft[k] = inverse.value();
    forward_y[k] = aligned.value();
  }
  const double scale = 1.0 / static_cast<double>(n);
  out.coefficients = out.dft;
  for (auto& value : out.coefficients) value *= scale;
  for (auto& value : out.idft) value *= scale;
  const bool any_nonzero = std::any_of(scaled.begin(), scaled.end(),
                                       [](const ScaledComplex& v) { return !v.is_zero(); });
  out.scaled_coefficients.resize(n);
  for (std::size_t i = 0; i < n && any_nonzero; ++i) {
    out.scaled_coefficients[i] = ScaledComplex::from_mantissa_exp(forward_y[i] * scale, max_exp);
  }
  return out;
}

}  // namespace per_pair

bool same_bits(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

bool same_bits(const std::vector<ScaledComplex>& a, const std::vector<ScaledComplex>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Complex ma = a[i].mantissa();
    const Complex mb = b[i].mantissa();
    if (std::memcmp(&ma, &mb, sizeof(Complex)) != 0 || a[i].exponent2() != b[i].exponent2()) {
      return false;
    }
  }
  return true;
}

/// One seeded part of a sample: a signed zero, a value 2^300 or 2^-300 off
/// the unit scale, the exact negation of an earlier part (so sums cancel
/// exactly), or a plain value.
double hard_part(support::Rng& rng, const std::vector<Complex>& earlier) {
  switch (rng.uniform_index(8)) {
    case 0: return rng.sign() * 0.0;
    case 1: return std::ldexp(rng.uniform(-1, 1), 300);
    case 2: return std::ldexp(rng.uniform(-1, 1), -300);
    case 3:
      if (!earlier.empty()) {
        const Complex& other = earlier[rng.uniform_index(earlier.size())];
        return rng.sign() > 0 ? -other.real() : -other.imag();
      }
      return 1.0;
    default: return rng.uniform(-1, 1);
  }
}

std::vector<Complex> hard_samples(support::Rng& rng, std::size_t count) {
  std::vector<Complex> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double re = hard_part(rng, samples);
    samples.emplace_back(re, hard_part(rng, samples));
  }
  return samples;
}

/// Extended-range samples 2^±3000 apart, so that alignment flushes some of
/// them to zero and keeps the rest.
std::vector<ScaledComplex> hard_scaled_samples(support::Rng& rng, std::size_t count) {
  const std::vector<Complex> mantissas = hard_samples(rng, count);
  std::vector<ScaledComplex> samples(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto shift = static_cast<std::int64_t>(rng.uniform_index(6001)) - 3000;
    samples[i] = ScaledComplex::from_mantissa_exp(mantissas[i], shift);
  }
  return samples;
}

/// -log10 of the worst error of the coefficient recovery relative to its
/// largest output, against a long-double direct transform, on samples
/// spread log-uniformly over 6 decades.
double transform_digits(std::size_t count, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Complex> samples(count);
  for (auto& v : samples) {
    const double scale = std::pow(10.0, rng.uniform(-6.0, 0.0));
    v = {scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1)};
  }
  const std::vector<Complex> actual = coefficients_from_unit_circle_samples(samples);
  constexpr long double kTwoPi = 6.283185307179586476925286766559L;
  std::vector<long double> cos_table(count);
  std::vector<long double> sin_table(count);
  for (std::size_t m = 0; m < count; ++m) {
    const long double angle =
        kTwoPi * static_cast<long double>(m) / static_cast<long double>(count);
    cos_table[m] = std::cos(angle);
    sin_table[m] = -std::sin(angle);
  }
  long double worst = 0.0L;
  long double largest = 0.0L;
  for (std::size_t k = 0; k < count; ++k) {
    long double re = 0.0L;
    long double im = 0.0L;
    for (std::size_t j = 0, index = 0; j < count; ++j) {
      const long double xr = samples[j].real();
      const long double xi = samples[j].imag();
      re += xr * cos_table[index] - xi * sin_table[index];
      im += xr * sin_table[index] + xi * cos_table[index];
      index = (index + k) % count;
    }
    re /= static_cast<long double>(count);
    im /= static_cast<long double>(count);
    largest = std::max(largest, std::hypot(re, im));
    worst = std::max(worst, std::hypot(re - static_cast<long double>(actual[k].real()),
                                       im - static_cast<long double>(actual[k].imag())));
  }
  return static_cast<double>(-std::log10(worst / largest));
}

TEST(UnitCircle, PointsLieOnCircleAndStartAtOne) {
  const auto points = unit_circle_points(8);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_LT(std::abs(points[0] - Complex(1.0, 0.0)), 1e-15);
  for (const Complex& p : points) {
    EXPECT_NEAR(std::abs(p), 1.0, 1e-15);
  }
  // Conjugate symmetry: s_k == conj(s_{K-k}).
  for (std::size_t k = 1; k < points.size(); ++k) {
    EXPECT_LT(std::abs(points[k] - std::conj(points[8 - k])), 1e-15);
  }
}

TEST(Dft, RoundTripIdentity) {
  support::Rng rng(7);
  for (const std::size_t size : {1u, 2u, 3u, 5u, 8u, 12u, 16u, 17u, 49u}) {
    std::vector<Complex> data(size);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const auto back = idft(dft(data));
    ASSERT_EQ(back.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_LT(std::abs(back[i] - data[i]), 1e-12) << "size " << size << " idx " << i;
    }
  }
}

TEST(Dft, FftAgreesWithDirectTransform) {
  // 16 is a power of two, so dft() takes the radix-2 path; compare it with
  // the direct sum over exp(-2*pi*j*j*k/16), written out here.
  support::Rng rng(8);
  std::vector<Complex> data(16);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto fast = dft(data);
  for (std::size_t k = 0; k < data.size(); ++k) {
    KahanSum<Complex> sum;
    for (std::size_t j = 0; j < data.size(); ++j) {
      const double angle = -2.0 * M_PI * static_cast<double>(j * k) / 16.0;
      sum.add(data[j] * Complex(std::cos(angle), std::sin(angle)));
    }
    EXPECT_LT(std::abs(fast[k] - sum.value()), 1e-11) << k;
  }
}

TEST(Dft, RecoversPolynomialCoefficients) {
  // The core interpolation identity: sample P on the unit circle, recover
  // its coefficients (paper eq. (5)).
  support::Rng rng(9);
  for (const int degree : {0, 1, 3, 7, 9, 14}) {
    std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1);
    for (auto& c : coeffs) c = rng.uniform(-2.0, 2.0);
    const Polynomial<double> p{std::vector<double>(coeffs)};
    const std::size_t K = static_cast<std::size_t>(degree) + 1;
    const auto points = unit_circle_points(K);
    std::vector<Complex> samples(K);
    for (std::size_t k = 0; k < K; ++k) samples[k] = p.eval(points[k]);
    const auto recovered = coefficients_from_unit_circle_samples(samples);
    for (std::size_t i = 0; i < K; ++i) {
      EXPECT_NEAR(recovered[i].real(), p.coeff(i), 1e-12) << "deg " << degree << " i " << i;
      EXPECT_NEAR(recovered[i].imag(), 0.0, 1e-12);
    }
  }
}

TEST(Dft, OverestimatedOrderGivesZeroHighCoefficients) {
  // K larger than degree+1: coefficients above the degree must vanish
  // (paper eq. (6)) — up to round-off, which is the paper's whole point.
  const Polynomial<double> p({1.0, 2.0, 3.0});
  const std::size_t K = 10;
  const auto points = unit_circle_points(K);
  std::vector<Complex> samples(K);
  for (std::size_t k = 0; k < K; ++k) samples[k] = p.eval(points[k]);
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  for (std::size_t i = 3; i < K; ++i) {
    EXPECT_LT(std::abs(recovered[i]), 1e-13) << i;
  }
}

TEST(DftScaled, MatchesDoublePathInRange) {
  support::Rng rng(10);
  const std::size_t K = 9;
  std::vector<Complex> plain(K);
  std::vector<ScaledComplex> scaled(K);
  for (std::size_t i = 0; i < K; ++i) {
    plain[i] = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    scaled[i] = ScaledComplex(plain[i]);
  }
  const auto expected = coefficients_from_unit_circle_samples(plain);
  const auto actual = coefficients_from_unit_circle_samples(scaled);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < K; ++i) {
    EXPECT_LT(std::abs(actual[i].to_complex() - expected[i]), 1e-13) << i;
  }
}

TEST(DftScaled, HandlesSamplesBeyondDoubleRange) {
  // P(s) = a0 + a1 s with coefficients near 1e400: samples overflow IEEE
  // double, but the common-exponent path recovers them exactly.
  const ScaledDouble a0 = ScaledDouble(1.5) * ScaledDouble::exp10i(400);
  const ScaledDouble a1 = ScaledDouble(-2.5) * ScaledDouble::exp10i(399);
  const std::size_t K = 4;
  const auto points = unit_circle_points(K);
  std::vector<ScaledComplex> samples(K);
  for (std::size_t k = 0; k < K; ++k) {
    samples[k] = ScaledComplex(a0) + ScaledComplex(a1) * ScaledComplex(points[k]);
  }
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  EXPECT_NEAR((recovered[0].real() / a0).to_double(), 1.0, 1e-12);
  EXPECT_NEAR((recovered[1].real() / a1).to_double(), 1.0, 1e-12);
  EXPECT_LT(recovered[2].abs().log10_abs(), 400.0 - 13.0);
  EXPECT_LT(recovered[3].abs().log10_abs(), 400.0 - 13.0);
}

TEST(DftScaled, WidelySpreadSamplesKeepOnlyDominantPrecision) {
  // A sample 400 decades below the peak cannot influence the transform —
  // documents the round-off model of §2.2.
  std::vector<ScaledComplex> samples(4, ScaledComplex(ScaledDouble::exp10i(100)));
  samples[2] = ScaledComplex(ScaledDouble::exp10i(-300));
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  // Coefficient 0 is the mean of samples: 3/4 * 1e100 + tiny.
  EXPECT_NEAR(recovered[0].real().log10_abs(), 100.0 + std::log10(0.75), 1e-9);
}

TEST(DftScaled, AllZeroSamples) {
  const std::vector<ScaledComplex> samples(5);
  const auto recovered = coefficients_from_unit_circle_samples(samples);
  ASSERT_EQ(recovered.size(), 5u);
  for (const auto& c : recovered) EXPECT_TRUE(c.is_zero());
}

TEST(Dft, DegenerateSizes) {
  EXPECT_TRUE(dft({}).empty());
  EXPECT_TRUE(idft({}).empty());
  const std::vector<Complex> one{{3.0, -1.0}};
  EXPECT_LT(std::abs(dft(one)[0] - one[0]), 1e-15);
  EXPECT_LT(std::abs(idft(one)[0] - one[0]), 1e-15);
  EXPECT_EQ(unit_circle_points(1).size(), 1u);
}

TEST(Dft, ParsevalEnergyConserved) {
  support::Rng rng(77);
  std::vector<Complex> x(12);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto X = dft(x);
  double ex = 0.0;
  double eX = 0.0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : X) eX += std::norm(v);
  EXPECT_NEAR(eX, ex * 12.0, 1e-10);  // Parseval with unnormalized forward
}

TEST(Dft, DirectPathKeepsTheBitsOfThePerPairLoop) {
  // Every size below 300 that takes the direct path, and a few large ones.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 300; ++n) {
    if ((n & (n - 1)) != 0) sizes.push_back(n);
  }
  for (const std::size_t n : {509u, 513u, 1021u, 1025u, 2049u}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    support::Rng rng(0x5EED0000u + n);
    const std::vector<Complex> samples = hard_samples(rng, n);
    const std::vector<ScaledComplex> scaled = hard_scaled_samples(rng, n);
    const per_pair::Expected expected = per_pair::transforms(samples, scaled);
    EXPECT_TRUE(same_bits(dft(samples), expected.dft)) << "dft, K " << n;
    EXPECT_TRUE(same_bits(idft(samples), expected.idft)) << "idft, K " << n;
    EXPECT_TRUE(same_bits(coefficients_from_unit_circle_samples(samples),
                          expected.coefficients))
        << "coefficients, K " << n;
    EXPECT_TRUE(same_bits(coefficients_from_unit_circle_samples(scaled),
                          expected.scaled_coefficients))
        << "scaled coefficients, K " << n;
  }
}

TEST(Dft, DirectPathKeepsFifteenDigits) {
  // Against a long-double oracle; the compensated sum over exact-angle
  // twiddles measured 15.4-15.5 digits.
  for (const std::size_t n : {257u, 509u, 1000u, 1021u, 2049u}) {
    EXPECT_GE(transform_digits(n, 31 + n), 15.0) << "K " << n;
  }
}

TEST(Dft, Radix2PathKeepsItsPresentDigits) {
  // A floor, not a goal: fft_radix2 builds its twiddles by the recurrence
  // w *= wn, which loses digits as K grows (13.8-13.9 measured at these
  // sizes). Exact-angle radix-2 twiddles (ROADMAP item 3) raise it.
  for (const std::size_t n : {1024u, 2048u}) {
    EXPECT_GE(transform_digits(n, 31 + n), 13.5) << "K " << n;
  }
}

TEST(Kahan, CompensatedSummationBeatsNaive) {
  // Summing 1 + 1e-16 * 10^7 terms: naive double accumulates to 1.0 + eps
  // garbage; Kahan keeps the exact value 1 + 1e-9 to full precision.
  KahanSum<double> kahan;
  double naive = 0.0;
  kahan.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 10000000; ++i) {
    kahan.add(1e-16);
    naive += 1e-16;
  }
  const double expected = 1.0 + 1e-9;
  EXPECT_NEAR(kahan.value(), expected, 1e-18);
  EXPECT_GT(std::fabs(naive - expected), 1e-12);  // naive visibly wrong
}

}  // namespace
}  // namespace symref::numeric
