// Extended-exponent floating point: double mantissa + 64-bit binary exponent.
//
// Why this exists: the paper's denormalized network-function coefficients
// span from ~1e-25 down to ~1e-522 (Table 3), and determinants of scaled
// 50-node admittance matrices overflow/underflow IEEE double long before the
// algorithm is done. ScaledDouble/ScaledComplex give ~16 significant digits
// with an exponent range of +/-2^63, which is enough for any circuit this
// library can factor.
//
// Representation invariant: value = mantissa * 2^exponent with either
// mantissa == 0 (and exponent == 0), or |mantissa| in [1, 2)
// (ScaledComplex: max(|re|,|im|) in [1, 2)).
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace symref::numeric {

class ScaledDouble {
 public:
  constexpr ScaledDouble() noexcept = default;

  /// Construct from a plain double (must be finite).
  ScaledDouble(double value) noexcept {  // NOLINT(google-explicit-constructor)
    mantissa_ = value;
    normalize();
  }

  /// Construct from mantissa * 2^exp2 (mantissa must be finite).
  static ScaledDouble from_mantissa_exp(double mantissa, std::int64_t exp2) noexcept {
    ScaledDouble s;
    s.mantissa_ = mantissa;
    s.exponent_ = exp2;
    s.normalize();
    return s;
  }

  /// 10^k with k any integer, computed by exact repeated squaring.
  static ScaledDouble exp10i(std::int64_t k);

  /// base^n for integer n (repeated squaring in scaled arithmetic); base may
  /// be huge/tiny without overflow, e.g. (1e9)^48 during denormalization.
  static ScaledDouble pow(const ScaledDouble& base, std::int64_t n);

  [[nodiscard]] double mantissa() const noexcept { return mantissa_; }
  [[nodiscard]] std::int64_t exponent2() const noexcept { return exponent_; }
  [[nodiscard]] bool is_zero() const noexcept { return mantissa_ == 0.0; }
  [[nodiscard]] int sign() const noexcept {
    return mantissa_ > 0.0 ? 1 : (mantissa_ < 0.0 ? -1 : 0);
  }

  /// Nearest double; saturates to +/-HUGE_VAL on overflow, +/-0 on underflow.
  [[nodiscard]] double to_double() const noexcept;

  /// log10(|value|); -inf for zero.
  [[nodiscard]] double log10_abs() const noexcept;

  /// Decimal exponent d such that |value| = m * 10^d with m in [1, 10).
  [[nodiscard]] std::int64_t decimal_exponent() const noexcept;

  [[nodiscard]] ScaledDouble abs() const noexcept {
    ScaledDouble r = *this;
    r.mantissa_ = std::fabs(r.mantissa_);
    return r;
  }

  ScaledDouble operator-() const noexcept {
    ScaledDouble r = *this;
    r.mantissa_ = -r.mantissa_;
    return r;
  }

  ScaledDouble& operator*=(const ScaledDouble& rhs) noexcept;
  ScaledDouble& operator/=(const ScaledDouble& rhs) noexcept;
  ScaledDouble& operator+=(const ScaledDouble& rhs) noexcept;
  ScaledDouble& operator-=(const ScaledDouble& rhs) noexcept { return *this += -rhs; }

  friend ScaledDouble operator*(ScaledDouble a, const ScaledDouble& b) noexcept { return a *= b; }
  friend ScaledDouble operator/(ScaledDouble a, const ScaledDouble& b) noexcept { return a /= b; }
  friend ScaledDouble operator+(ScaledDouble a, const ScaledDouble& b) noexcept { return a += b; }
  friend ScaledDouble operator-(ScaledDouble a, const ScaledDouble& b) noexcept { return a -= b; }

  /// Total order consistent with real-number values.
  friend bool operator<(const ScaledDouble& a, const ScaledDouble& b) noexcept {
    return (a - b).sign() < 0;
  }
  friend bool operator>(const ScaledDouble& a, const ScaledDouble& b) noexcept { return b < a; }
  friend bool operator<=(const ScaledDouble& a, const ScaledDouble& b) noexcept { return !(b < a); }
  friend bool operator>=(const ScaledDouble& a, const ScaledDouble& b) noexcept { return !(a < b); }
  friend bool operator==(const ScaledDouble& a, const ScaledDouble& b) noexcept {
    return a.mantissa_ == b.mantissa_ && a.exponent_ == b.exponent_;
  }
  friend bool operator!=(const ScaledDouble& a, const ScaledDouble& b) noexcept {
    return !(a == b);
  }

  /// Scientific-notation string, e.g. "-1.12150e-522". `significant_digits`
  /// is clamped to [1, 17].
  [[nodiscard]] std::string to_string(int significant_digits = 6) const;

 private:
  void normalize() noexcept;

  double mantissa_ = 0.0;
  std::int64_t exponent_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ScaledDouble& value);

/// |a / b| as a plain double ratio; +inf when b == 0 and a != 0, 1 when both 0.
double ratio_abs(const ScaledDouble& a, const ScaledDouble& b) noexcept;

/// Relative difference |a-b| / max(|a|,|b|); 0 when both are zero.
double relative_difference(const ScaledDouble& a, const ScaledDouble& b) noexcept;

class ScaledComplex {
 public:
  constexpr ScaledComplex() noexcept = default;

  ScaledComplex(std::complex<double> value) noexcept {  // NOLINT(google-explicit-constructor)
    mantissa_ = value;
    normalize();
  }
  ScaledComplex(double value) noexcept  // NOLINT(google-explicit-constructor)
      : ScaledComplex(std::complex<double>(value, 0.0)) {}
  ScaledComplex(const ScaledDouble& value) noexcept {  // NOLINT(google-explicit-constructor)
    mantissa_ = std::complex<double>(value.mantissa(), 0.0);
    exponent_ = value.exponent2();
    normalize();
  }

  static ScaledComplex from_mantissa_exp(std::complex<double> mantissa,
                                         std::int64_t exp2) noexcept {
    ScaledComplex s;
    s.mantissa_ = mantissa;
    s.exponent_ = exp2;
    s.normalize();
    return s;
  }

  [[nodiscard]] std::complex<double> mantissa() const noexcept { return mantissa_; }
  [[nodiscard]] std::int64_t exponent2() const noexcept { return exponent_; }
  [[nodiscard]] bool is_zero() const noexcept { return mantissa_ == std::complex<double>(); }

  [[nodiscard]] ScaledDouble real() const noexcept {
    return ScaledDouble::from_mantissa_exp(mantissa_.real(), exponent_);
  }
  [[nodiscard]] ScaledDouble imag() const noexcept {
    return ScaledDouble::from_mantissa_exp(mantissa_.imag(), exponent_);
  }
  [[nodiscard]] ScaledDouble abs() const noexcept {
    return ScaledDouble::from_mantissa_exp(std::abs(mantissa_), exponent_);
  }
  [[nodiscard]] ScaledComplex conj() const noexcept {
    return from_mantissa_exp(std::conj(mantissa_), exponent_);
  }

  /// Nearest complex<double>; each part saturates like ScaledDouble.
  [[nodiscard]] std::complex<double> to_complex() const noexcept;

  ScaledComplex operator-() const noexcept { return from_mantissa_exp(-mantissa_, exponent_); }

  ScaledComplex& operator*=(const ScaledComplex& rhs) noexcept;
  ScaledComplex& operator/=(const ScaledComplex& rhs) noexcept;
  ScaledComplex& operator+=(const ScaledComplex& rhs) noexcept;
  ScaledComplex& operator-=(const ScaledComplex& rhs) noexcept { return *this += -rhs; }

  friend ScaledComplex operator*(ScaledComplex a, const ScaledComplex& b) noexcept {
    return a *= b;
  }
  friend ScaledComplex operator/(ScaledComplex a, const ScaledComplex& b) noexcept {
    return a /= b;
  }
  friend ScaledComplex operator+(ScaledComplex a, const ScaledComplex& b) noexcept {
    return a += b;
  }
  friend ScaledComplex operator-(ScaledComplex a, const ScaledComplex& b) noexcept {
    return a -= b;
  }
  friend bool operator==(const ScaledComplex& a, const ScaledComplex& b) noexcept {
    return a.mantissa_ == b.mantissa_ && a.exponent_ == b.exponent_;
  }
  friend bool operator!=(const ScaledComplex& a, const ScaledComplex& b) noexcept {
    return !(a == b);
  }

  [[nodiscard]] std::string to_string(int significant_digits = 6) const;

 private:
  void normalize() noexcept;

  std::complex<double> mantissa_{0.0, 0.0};
  std::int64_t exponent_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ScaledComplex& value);

/// sign * product of `count` strided complex factors (values[i * stride]) as
/// a canonical ScaledComplex — the pivot-product determinant of the LU
/// replay paths. Bit-identical to folding each factor through ScaledComplex
/// operator*= (scaling by powers of two is exact, so WHEN the accumulated
/// magnitude is folded into the exponent cannot change the canonical
/// result), but renormalizes only when the running product leaves a wide
/// safe window instead of after every factor: the common step is one plain
/// complex multiply.
ScaledComplex scaled_pivot_product(const std::complex<double>* values, std::size_t count,
                                   std::size_t stride, double sign);

/// Plane-split overload for SoA consumers that keep real and imaginary parts
/// in separate arrays: factor i is (re[i * stride], im[i * stride]). Same
/// arithmetic, same canonical result.
ScaledComplex scaled_pivot_product(const double* re, const double* im, std::size_t count,
                                   std::size_t stride, double sign);

}  // namespace symref::numeric
