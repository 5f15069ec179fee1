// Polynomial root extraction (Aberth-Ehrlich), an extension on top of the
// paper: once the adaptive interpolation has produced exact numerator /
// denominator coefficients, their roots are the circuit's zeros and poles.
//
// Network-function coefficients span hundreds of decades, so the iteration
// evaluates p and p' in extended-range (ScaledComplex) arithmetic — the
// Newton ratio p/p' is root-sized and safely returns to double — and seeds
// the roots from the coefficient profile: |p_k / p_{k+1}| estimates the
// k-th root magnitude (Newton-polygon argument), which for circuit
// polynomials with well-spread poles is accurate to a factor of a few.
#pragma once

#include <complex>
#include <vector>

#include "numeric/polynomial.h"
#include "numeric/scaled.h"

namespace symref::numeric {

/// Aberth sweeps before find_roots gives up (converged stays false).
inline constexpr int kMaxRootIterations = 500;
/// Convergence threshold on the worst Aberth correction relative to its
/// root. High-degree clusters (30+ poles) settle to ~1e-11; individual
/// well-separated roots converge much further.
inline constexpr double kRootTolerance = 1e-11;

struct RootResult {
  std::vector<std::complex<double>> roots;
  bool converged = false;
  int iterations = 0;
};

/// Roots of a polynomial with extended-range coefficients. Roots at the
/// origin (leading zero coefficients) are returned exactly as 0.
RootResult find_roots(const Polynomial<ScaledDouble>& poly);

/// Convenience overload for plain double coefficients.
RootResult find_roots(const Polynomial<double>& poly);

}  // namespace symref::numeric
