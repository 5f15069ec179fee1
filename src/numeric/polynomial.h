// Dense univariate polynomials with ascending coefficient storage.
//
// The library uses three instantiations:
//   Polynomial<double>          - synthetic tests, symbolic oracle results
//   Polynomial<complex<double>> - interpolation-point workspaces
//   Polynomial<ScaledDouble>    - network-function coefficients, whose
//                                 dynamic range exceeds IEEE double
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "numeric/scaled.h"

namespace symref::numeric {

namespace detail {
inline bool coeff_is_zero(double c) noexcept { return c == 0.0; }
inline bool coeff_is_zero(const std::complex<double>& c) noexcept {
  return c == std::complex<double>();
}
inline bool coeff_is_zero(const ScaledDouble& c) noexcept { return c.is_zero(); }
inline bool coeff_is_zero(const ScaledComplex& c) noexcept { return c.is_zero(); }
}  // namespace detail

template <typename T>
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<T> coefficients) : coeffs_(std::move(coefficients)) { trim(); }
  Polynomial(std::initializer_list<T> coefficients) : coeffs_(coefficients) { trim(); }

  /// Zero polynomial reported with degree() == -1.
  [[nodiscard]] int degree() const noexcept { return static_cast<int>(coeffs_.size()) - 1; }
  [[nodiscard]] bool is_zero() const noexcept { return coeffs_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return coeffs_.size(); }

  [[nodiscard]] const std::vector<T>& coefficients() const noexcept { return coeffs_; }

  /// Coefficient of s^i; zero beyond the stored degree.
  [[nodiscard]] T coeff(std::size_t i) const {
    return i < coeffs_.size() ? coeffs_[i] : T{};
  }

  /// Set coefficient of s^i, growing the polynomial as needed.
  void set_coeff(std::size_t i, T value) {
    if (i >= coeffs_.size()) coeffs_.resize(i + 1, T{});
    coeffs_[i] = std::move(value);
    trim();
  }

  /// Horner evaluation; the accumulator type follows from T * Arg.
  template <typename Arg>
  [[nodiscard]] auto eval(const Arg& s) const {
    using Acc = decltype(std::declval<T>() * std::declval<Arg>() + std::declval<T>());
    Acc acc{};
    for (std::size_t i = coeffs_.size(); i-- > 0;) {
      acc = acc * s + Acc(coeffs_[i]);
    }
    return acc;
  }

  Polynomial& operator+=(const Polynomial& rhs) {
    if (rhs.coeffs_.size() > coeffs_.size()) coeffs_.resize(rhs.coeffs_.size(), T{});
    for (std::size_t i = 0; i < rhs.coeffs_.size(); ++i) coeffs_[i] += rhs.coeffs_[i];
    trim();
    return *this;
  }
  Polynomial& operator-=(const Polynomial& rhs) {
    if (rhs.coeffs_.size() > coeffs_.size()) coeffs_.resize(rhs.coeffs_.size(), T{});
    for (std::size_t i = 0; i < rhs.coeffs_.size(); ++i) coeffs_[i] -= rhs.coeffs_[i];
    trim();
    return *this;
  }

  friend Polynomial operator+(Polynomial a, const Polynomial& b) { return a += b; }
  friend Polynomial operator-(Polynomial a, const Polynomial& b) { return a -= b; }

  friend Polynomial operator*(const Polynomial& a, const Polynomial& b) {
    if (a.is_zero() || b.is_zero()) return Polynomial{};
    std::vector<T> out(a.coeffs_.size() + b.coeffs_.size() - 1, T{});
    for (std::size_t i = 0; i < a.coeffs_.size(); ++i) {
      for (std::size_t j = 0; j < b.coeffs_.size(); ++j) {
        out[i + j] += a.coeffs_[i] * b.coeffs_[j];
      }
    }
    return Polynomial(std::move(out));
  }

  Polynomial& operator*=(const T& scalar) {
    for (auto& c : coeffs_) c *= scalar;
    trim();
    return *this;
  }
  friend Polynomial operator*(Polynomial p, const T& scalar) { return p *= scalar; }
  friend Polynomial operator*(const T& scalar, Polynomial p) { return p *= scalar; }

  /// dp/ds.
  [[nodiscard]] Polynomial derivative() const {
    if (coeffs_.size() <= 1) return Polynomial{};
    std::vector<T> out(coeffs_.size() - 1, T{});
    for (std::size_t i = 1; i < coeffs_.size(); ++i) {
      out[i - 1] = coeffs_[i] * T(static_cast<double>(i));
    }
    return Polynomial(std::move(out));
  }

  friend bool operator==(const Polynomial& a, const Polynomial& b) {
    return a.coeffs_ == b.coeffs_;
  }

 private:
  /// Drop trailing zero coefficients: one resize to the kept length.
  void trim() {
    std::size_t kept = coeffs_.size();
    while (kept > 0 && detail::coeff_is_zero(coeffs_[kept - 1])) --kept;
    coeffs_.resize(kept);
  }

  std::vector<T> coeffs_;
};

/// Convert a double polynomial to extended-range coefficients.
inline Polynomial<ScaledDouble> to_scaled(const Polynomial<double>& p) {
  std::vector<ScaledDouble> coeffs;
  coeffs.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) coeffs.emplace_back(p.coeff(i));
  return Polynomial<ScaledDouble>(std::move(coeffs));
}

/// Convert scaled coefficients to double, saturating out-of-range values.
inline Polynomial<double> to_double(const Polynomial<ScaledDouble>& p) {
  std::vector<double> coeffs;
  coeffs.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) coeffs.push_back(p.coeff(i).to_double());
  return Polynomial<double>(std::move(coeffs));
}

/// Evaluate a ScaledDouble-coefficient polynomial at a complex point without
/// intermediate overflow (used for Bode plots from interpolated coefficients:
/// coefficients can be ~1e-522 while s^i is ~1e+400).
inline ScaledComplex eval_scaled(const Polynomial<ScaledDouble>& p,
                                 const std::complex<double>& s) {
  ScaledComplex acc;
  const ScaledComplex zs(s);
  for (std::size_t i = p.size(); i-- > 0;) {
    acc = acc * zs + ScaledComplex(p.coeff(i));
  }
  return acc;
}

}  // namespace symref::numeric
