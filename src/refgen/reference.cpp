#include "refgen/reference.h"

#include <cmath>
#include <sstream>

namespace symref::refgen {

using numeric::ScaledComplex;
using numeric::ScaledDouble;

const char* coefficient_status_name(CoefficientStatus status) noexcept {
  switch (status) {
    case CoefficientStatus::Unknown: return "unknown";
    case CoefficientStatus::Interpolated: return "interpolated";
    case CoefficientStatus::ZeroTail: return "zero";
  }
  return "unknown";
}

int PolynomialReference::effective_order() const noexcept {
  for (int i = order_bound(); i >= 0; --i) {
    const Coefficient& c = coefficients_[static_cast<std::size_t>(i)];
    if (c.known() && !c.value.is_zero() && c.status != CoefficientStatus::ZeroTail) return i;
  }
  return -1;
}

bool PolynomialReference::complete() const noexcept {
  for (const Coefficient& c : coefficients_) {
    if (!c.known()) return false;
  }
  return !coefficients_.empty();
}

int PolynomialReference::known_count() const noexcept {
  int count = 0;
  for (const Coefficient& c : coefficients_) {
    if (c.known()) ++count;
  }
  return count;
}

numeric::Polynomial<ScaledDouble> PolynomialReference::polynomial() const {
  std::vector<ScaledDouble> coeffs(coefficients_.size());
  for (std::size_t i = 0; i < coefficients_.size(); ++i) {
    if (coefficients_[i].known()) coeffs[i] = coefficients_[i].value;
  }
  return numeric::Polynomial<ScaledDouble>(std::move(coeffs));
}

std::complex<double> NumericalReference::transfer(std::complex<double> s) const {
  const ScaledComplex n = numeric::eval_scaled(numerator_.polynomial(), s);
  const ScaledComplex d = numeric::eval_scaled(denominator_.polynomial(), s);
  if (d.is_zero()) return {HUGE_VAL, 0.0};
  return (n / d).to_complex();
}

std::complex<double> NumericalReference::transfer_at_hz(double frequency_hz) const {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return transfer(std::complex<double>(0.0, kTwoPi * frequency_hz));
}

std::vector<mna::BodePoint> NumericalReference::bode(double f_start_hz, double f_stop_hz,
                                                     int points_per_decade) const {
  const std::vector<double> grid =
      mna::log_frequency_grid(f_start_hz, f_stop_hz, points_per_decade);
  std::vector<std::complex<double>> values(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) values[i] = transfer_at_hz(grid[i]);
  return mna::bode_points(grid, values);
}

namespace {
const char* status_tag(CoefficientStatus status) {
  switch (status) {
    case CoefficientStatus::Unknown: return "?";
    case CoefficientStatus::Interpolated: return "ok";
    case CoefficientStatus::ZeroTail: return "zero";
  }
  return "?";
}
}  // namespace

std::string NumericalReference::describe(int significant_digits) const {
  std::ostringstream os;
  const auto dump = [&](const char* label, const PolynomialReference& poly) {
    os << label << " (order bound " << poly.order_bound() << ", effective "
       << poly.effective_order() << "):\n";
    for (int i = 0; i <= poly.order_bound(); ++i) {
      const Coefficient& c = poly.at(i);
      os << "  s^" << i << "  " << c.value.to_string(significant_digits) << "  ["
         << status_tag(c.status) << "]\n";
    }
  };
  dump("numerator", numerator_);
  dump("denominator", denominator_);
  return os.str();
}

}  // namespace symref::refgen
