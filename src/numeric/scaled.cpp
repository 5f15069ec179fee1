#include "numeric/scaled.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>

namespace symref::numeric {

namespace {
constexpr double kLog10Of2 = 0.30102999566398119521373889472449;
// Exponent gap beyond which the smaller addend cannot affect the larger
// (double has 53 mantissa bits; 1075 covers the subnormal tail too).
constexpr std::int64_t kAlignLimit = 1100;
}  // namespace

void ScaledDouble::normalize() noexcept {
  if (mantissa_ == 0.0) {
    // Collapse all zeros (including -0.0 from subtractions) to the canonical
    // representation so operator== behaves as value equality.
    mantissa_ = 0.0;
    exponent_ = 0;
    return;
  }
  assert(std::isfinite(mantissa_));
  int shift = 0;
  const double fraction = std::frexp(mantissa_, &shift);  // |fraction| in [0.5, 1)
  mantissa_ = fraction * 2.0;                             // -> [1, 2)
  exponent_ += shift - 1;
}

double ScaledDouble::to_double() const noexcept {
  if (is_zero()) return 0.0;
  if (exponent_ > 1024) return mantissa_ > 0 ? HUGE_VAL : -HUGE_VAL;
  if (exponent_ < -1075) return mantissa_ > 0 ? 0.0 : -0.0;
  return std::ldexp(mantissa_, static_cast<int>(exponent_));
}

double ScaledDouble::log10_abs() const noexcept {
  if (is_zero()) return -HUGE_VAL;
  return std::log10(std::fabs(mantissa_)) + static_cast<double>(exponent_) * kLog10Of2;
}

std::int64_t ScaledDouble::decimal_exponent() const noexcept {
  return static_cast<std::int64_t>(std::floor(log10_abs()));
}

ScaledDouble& ScaledDouble::operator*=(const ScaledDouble& rhs) noexcept {
  mantissa_ *= rhs.mantissa_;
  exponent_ += rhs.exponent_;
  normalize();
  return *this;
}

ScaledDouble& ScaledDouble::operator/=(const ScaledDouble& rhs) noexcept {
  assert(!rhs.is_zero() && "ScaledDouble division by zero");
  mantissa_ /= rhs.mantissa_;
  exponent_ -= rhs.exponent_;
  normalize();
  return *this;
}

ScaledDouble& ScaledDouble::operator+=(const ScaledDouble& rhs) noexcept {
  if (rhs.is_zero()) return *this;
  if (is_zero()) {
    *this = rhs;
    return *this;
  }
  // Align the smaller operand onto the larger one's exponent.
  if (exponent_ >= rhs.exponent_) {
    const std::int64_t gap = exponent_ - rhs.exponent_;
    if (gap <= kAlignLimit) {
      mantissa_ += std::ldexp(rhs.mantissa_, static_cast<int>(-gap));
    }
  } else {
    const std::int64_t gap = rhs.exponent_ - exponent_;
    if (gap <= kAlignLimit) {
      const double shifted = std::ldexp(mantissa_, static_cast<int>(-gap));
      mantissa_ = rhs.mantissa_ + shifted;
    } else {
      mantissa_ = rhs.mantissa_;
    }
    exponent_ = rhs.exponent_;
  }
  normalize();
  return *this;
}

ScaledDouble ScaledDouble::exp10i(std::int64_t k) {
  return pow(ScaledDouble(10.0), k);
}

ScaledDouble ScaledDouble::pow(const ScaledDouble& base, std::int64_t n) {
  if (n == 0) return ScaledDouble(1.0);
  const bool invert = n < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  std::uint64_t count = invert ? (~static_cast<std::uint64_t>(n) + 1u)
                               : static_cast<std::uint64_t>(n);
  ScaledDouble result(1.0);
  ScaledDouble square = base;
  while (count != 0) {
    if (count & 1u) result *= square;
    square *= square;
    count >>= 1u;
  }
  if (invert) result = ScaledDouble(1.0) / result;
  return result;
}

std::string ScaledDouble::to_string(int significant_digits) const {
  if (is_zero()) return "0";
  // At least one digit, and no more than the 17 a double carries.
  const int decimals = std::clamp(significant_digits, 1, 17) - 1;
  const double l10 = log10_abs();
  std::int64_t d = static_cast<std::int64_t>(std::floor(l10));
  double mant10 = std::pow(10.0, l10 - static_cast<double>(d));
  // Guard against floor/pow rounding leaving mant10 just outside [1, 10).
  if (mant10 >= 10.0) {
    mant10 /= 10.0;
    ++d;
  } else if (mant10 < 1.0) {
    mant10 *= 10.0;
    --d;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, mant10);
  // Rounding may print "10.000"; renormalize once more.
  if (buffer[0] == '1' && buffer[1] == '0') {
    ++d;
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, 1.0);
  }
  char out[96];
  std::snprintf(out, sizeof(out), "%s%se%+lld", sign() < 0 ? "-" : "", buffer,
                static_cast<long long>(d));
  return out;
}

std::ostream& operator<<(std::ostream& os, const ScaledDouble& value) {
  return os << value.to_string();
}

double ratio_abs(const ScaledDouble& a, const ScaledDouble& b) noexcept {
  if (b.is_zero()) return a.is_zero() ? 1.0 : HUGE_VAL;
  return (a.abs() / b.abs()).to_double();
}

double relative_difference(const ScaledDouble& a, const ScaledDouble& b) noexcept {
  if (a.is_zero() && b.is_zero()) return 0.0;
  const ScaledDouble diff = (a - b).abs();
  const ScaledDouble denom = std::max(a.abs(), b.abs());
  return (diff / denom).to_double();
}

void ScaledComplex::normalize() noexcept {
  const double peak = std::max(std::fabs(mantissa_.real()), std::fabs(mantissa_.imag()));
  if (peak == 0.0) {
    mantissa_ = std::complex<double>(0.0, 0.0);
    exponent_ = 0;
    return;
  }
  assert(std::isfinite(mantissa_.real()) && std::isfinite(mantissa_.imag()));
  int shift = 0;
  (void)std::frexp(peak, &shift);  // peak = f * 2^shift, f in [0.5, 1)
  const int adjust = shift - 1;    // bring peak into [1, 2)
  if (adjust != 0) {
    mantissa_ = std::complex<double>(std::ldexp(mantissa_.real(), -adjust),
                                     std::ldexp(mantissa_.imag(), -adjust));
    exponent_ += adjust;
  }
}

std::complex<double> ScaledComplex::to_complex() const noexcept {
  return {real().to_double(), imag().to_double()};
}

ScaledComplex& ScaledComplex::operator*=(const ScaledComplex& rhs) noexcept {
  mantissa_ *= rhs.mantissa_;
  exponent_ += rhs.exponent_;
  normalize();
  return *this;
}

ScaledComplex& ScaledComplex::operator/=(const ScaledComplex& rhs) noexcept {
  assert(!rhs.is_zero() && "ScaledComplex division by zero");
  mantissa_ /= rhs.mantissa_;
  exponent_ -= rhs.exponent_;
  normalize();
  return *this;
}

ScaledComplex& ScaledComplex::operator+=(const ScaledComplex& rhs) noexcept {
  if (rhs.is_zero()) return *this;
  if (is_zero()) {
    *this = rhs;
    return *this;
  }
  if (exponent_ >= rhs.exponent_) {
    const std::int64_t gap = exponent_ - rhs.exponent_;
    if (gap <= kAlignLimit) {
      const double scale = std::ldexp(1.0, static_cast<int>(-gap));
      mantissa_ += rhs.mantissa_ * scale;
    }
  } else {
    const std::int64_t gap = rhs.exponent_ - exponent_;
    if (gap <= kAlignLimit) {
      const double scale = std::ldexp(1.0, static_cast<int>(-gap));
      mantissa_ = rhs.mantissa_ + mantissa_ * scale;
    } else {
      mantissa_ = rhs.mantissa_;
    }
    exponent_ = rhs.exponent_;
  }
  normalize();
  return *this;
}

std::string ScaledComplex::to_string(int significant_digits) const {
  const ScaledDouble re = real();
  const ScaledDouble im = imag();
  std::string out = re.to_string(significant_digits);
  out += im.sign() < 0 ? " - j" : " + j";
  out += im.abs().to_string(significant_digits);
  return out;
}

std::ostream& operator<<(std::ostream& os, const ScaledComplex& value) {
  return os << value.to_string();
}

ScaledComplex scaled_pivot_product(const std::complex<double>* values, std::size_t count,
                                   std::size_t stride, double sign) {
  // std::complex<double> is layout-compatible with double[2] (guaranteed by
  // the standard), so the interleaved form is the plane form with doubled
  // stride and the imaginary plane offset by one.
  const double* flat = reinterpret_cast<const double*>(values);
  return scaled_pivot_product(flat, flat + 1, count, stride * 2, sign);
}

ScaledComplex scaled_pivot_product(const double* re, const double* im, std::size_t count,
                                   std::size_t stride, double sign) {
  // Window bounds: with the accumulator and each factor's peak magnitude
  // inside (2^-256, 2^256), every elementary product stays within 2^±513 —
  // far from double overflow AND far enough from the subnormal range that
  // no mantissa bits are ever rounded away by the deferred scaling. A
  // factor outside the window (including an exact zero) takes the eagerly
  // normalized ScaledComplex step instead.
  constexpr double kHigh = 0x1p256, kLow = 0x1p-256;
  std::complex<double> acc(sign, 0.0);
  std::int64_t exponent = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::complex<double> v(re[i * stride], im[i * stride]);
    const double vpeak = std::max(std::fabs(v.real()), std::fabs(v.imag()));
    if (!(vpeak > kLow && vpeak < kHigh)) {
      const ScaledComplex folded =
          ScaledComplex::from_mantissa_exp(acc, exponent) * ScaledComplex(v);
      acc = folded.mantissa();
      exponent = folded.exponent2();
      continue;
    }
    acc *= v;
    const double peak = std::max(std::fabs(acc.real()), std::fabs(acc.imag()));
    if (!(peak > kLow && peak < kHigh)) {
      const ScaledComplex folded = ScaledComplex::from_mantissa_exp(acc, exponent);
      acc = folded.mantissa();
      exponent = folded.exponent2();
    }
  }
  return ScaledComplex::from_mantissa_exp(acc, exponent);
}

}  // namespace symref::numeric
