#include "numeric/roots.h"

#include <algorithm>
#include <cmath>

namespace symref::numeric {

namespace {

using Complex = std::complex<double>;

/// p(z) and p'(z) with extended-range accumulation: network-function
/// coefficients span hundreds of decades, so a double Horner would
/// over/underflow even though the roots themselves are representable.
std::pair<ScaledComplex, ScaledComplex> eval_with_derivative(
    const std::vector<ScaledDouble>& coeffs, Complex z) {
  ScaledComplex p;
  ScaledComplex dp;
  const ScaledComplex zs(z);
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    dp = dp * zs + p;
    p = p * zs + ScaledComplex(coeffs[i]);
  }
  return {p, dp};
}

/// Initial guesses from the coefficient profile (Newton-polygon flavour):
/// for circuit polynomials the k-th root magnitude is well approximated by
/// |p_k / p_{k+1}| — consecutive coefficients differ by one pole.
std::vector<Complex> initial_guesses(const std::vector<ScaledDouble>& coeffs) {
  const std::size_t degree = coeffs.size() - 1;
  std::vector<Complex> z(degree);
  double previous_log = 0.0;
  bool have_previous = false;
  for (std::size_t i = 0; i < degree; ++i) {
    double log_radius;
    if (!coeffs[i].is_zero() && !coeffs[i + 1].is_zero()) {
      log_radius = coeffs[i].log10_abs() - coeffs[i + 1].log10_abs();
    } else if (have_previous) {
      log_radius = previous_log;
    } else {
      log_radius = 0.0;
    }
    // Clamp to double-representable magnitudes.
    log_radius = std::clamp(log_radius, -120.0, 120.0);
    previous_log = log_radius;
    have_previous = true;
    // Irrational angular offset breaks conjugate-symmetric stalemates.
    const double angle =
        2.0 * M_PI * static_cast<double>(i) / static_cast<double>(degree) + 0.4;
    z[i] = std::polar(std::pow(10.0, log_radius), angle);
  }
  return z;
}

RootResult aberth(const std::vector<ScaledDouble>& coeffs) {
  RootResult result;
  const std::size_t degree = coeffs.size() - 1;
  if (degree == 0) {
    result.converged = true;
    return result;
  }

  std::vector<Complex> z = initial_guesses(coeffs);

  for (int iter = 0; iter < kMaxRootIterations; ++iter) {
    double worst = 0.0;
    for (std::size_t i = 0; i < degree; ++i) {
      const auto [p, dp] = eval_with_derivative(coeffs, z[i]);
      if (p.is_zero()) continue;
      if (dp.is_zero()) continue;
      // Newton step in extended range; the ratio is root-sized, hence
      // representable as double.
      const Complex newton = (p / dp).to_complex();
      Complex repulsion(0.0, 0.0);
      for (std::size_t j = 0; j < degree; ++j) {
        if (j == i) continue;
        const Complex gap = z[i] - z[j];
        if (std::abs(gap) > 1e-300) repulsion += 1.0 / gap;
      }
      const Complex denom = 1.0 - newton * repulsion;
      const Complex correction = std::abs(denom) < 1e-300 ? newton : newton / denom;
      if (!std::isfinite(correction.real()) || !std::isfinite(correction.imag())) continue;
      z[i] -= correction;
      const double scale = std::max(std::abs(z[i]), 1e-30);
      worst = std::max(worst, std::abs(correction) / scale);
    }
    result.iterations = iter + 1;
    if (worst < kRootTolerance) {
      result.converged = true;
      break;
    }
  }
  result.roots = std::move(z);
  return result;
}

}  // namespace

RootResult find_roots(const Polynomial<ScaledDouble>& poly) {
  RootResult result;
  if (poly.degree() < 1) {
    result.converged = true;
    return result;
  }

  // Strip roots at the origin (leading zero coefficients).
  std::size_t first_nonzero = 0;
  while (first_nonzero < poly.size() && poly.coeff(first_nonzero).is_zero()) ++first_nonzero;
  std::vector<ScaledDouble> coeffs;
  coeffs.reserve(poly.size() - first_nonzero);
  for (std::size_t i = first_nonzero; i < poly.size(); ++i) coeffs.push_back(poly.coeff(i));

  if (coeffs.size() <= 1) {
    result.converged = true;
    result.roots.assign(first_nonzero, Complex(0.0, 0.0));
    return result;
  }

  result = aberth(coeffs);
  result.roots.insert(result.roots.end(), first_nonzero, Complex(0.0, 0.0));
  std::sort(result.roots.begin(), result.roots.end(), [](const Complex& a, const Complex& b) {
    return std::abs(a) < std::abs(b);
  });
  return result;
}

RootResult find_roots(const Polynomial<double>& poly) {
  return find_roots(to_scaled(poly));
}

}  // namespace symref::numeric
