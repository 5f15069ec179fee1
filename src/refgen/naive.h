// Baseline interpolators (paper §2.2 and §3, Tables 1a/1b).
//
//  * naive_interpolation        — points on the raw unit circle, no scaling.
//    For integrated circuits almost every recovered coefficient drowns in
//    round-off noise (Table 1a): the imaginary parts, which should cancel
//    exactly, come out as large as most real parts.
//  * fixed_scale_interpolation  — one user-chosen frequency/conductance
//    scale pair (Table 1b used f = 1e9). A single scaling exposes only the
//    coefficients within ~13-sigma decades of the scaled maximum; for
//    polynomials beyond ~10th order no single factor can expose all of them
//    (paper §3.1), which is what the adaptive engine solves.
#pragma once

#include <complex>
#include <vector>

#include "interp/region.h"
#include "mna/nodal.h"
#include "mna/transfer.h"
#include "numeric/scaled.h"

namespace symref::refgen {

struct BaselineOptions {
  /// Number of interpolation points; 0 = order bound + 1.
  int points = 0;
  /// Significant digits for the validity floor (eq. (12)).
  int sigma = 6;
  /// Halve the evaluations using P(conj s) = conj P(s).
  bool conjugate_symmetry = true;
};

/// Result of one single-scaling interpolation of N and D.
struct BaselineResult {
  double f_scale = 1.0;
  double g_scale = 1.0;
  int points = 0;
  int evaluations = 0;
  bool ok = false;

  /// Raw normalized coefficients, complex — Table 1a prints the imaginary
  /// parts as evidence of round-off noise.
  std::vector<numeric::ScaledComplex> numerator_normalized;
  std::vector<numeric::ScaledComplex> denominator_normalized;

  /// Denormalized real parts (divide by f^i g^(deg-i)).
  std::vector<numeric::ScaledDouble> numerator_denormalized;
  std::vector<numeric::ScaledDouble> denominator_denormalized;

  interp::ValidRegion numerator_region;
  interp::ValidRegion denominator_region;
};

/// Table 1a baseline: unit circle, f = g = 1.
BaselineResult naive_interpolation(const mna::NodalSystem& system,
                                   const mna::TransferSpec& spec,
                                   const BaselineOptions& options = {});

/// Table 1b baseline: fixed scale factors chosen by the caller.
BaselineResult fixed_scale_interpolation(const mna::NodalSystem& system,
                                         const mna::TransferSpec& spec, double f_scale,
                                         double g_scale, const BaselineOptions& options = {});

/// Denormalize one coefficient: p_i = p'_i / (f^i * g^(degree - i)).
numeric::ScaledDouble denormalize_coefficient(const numeric::ScaledDouble& normalized,
                                              int index, int degree, double f_scale,
                                              double g_scale);

/// Normalize one coefficient: p'_i = p_i * f^i * g^(degree - i).
numeric::ScaledDouble normalize_coefficient(const numeric::ScaledDouble& denormalized,
                                            int index, int degree, double f_scale,
                                            double g_scale);

}  // namespace symref::refgen
