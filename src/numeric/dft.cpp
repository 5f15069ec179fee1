#include "numeric/dft.h"

#include <cassert>
#include <cmath>

#include "numeric/kahan.h"

namespace symref::numeric {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool is_power_of_two(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

/// exp(sign * 2*pi*j * num / den) with the angle reduced exactly first, so
/// twiddles stay accurate for any index product.
std::complex<double> twiddle(std::uint64_t num, std::uint64_t den, int sign) {
  const double angle = kTwoPi * static_cast<double>(num % den) / static_cast<double>(den);
  return {std::cos(angle), sign * std::sin(angle)};
}

/// In-place iterative radix-2 Cooley-Tukey; sign = -1 forward, +1 inverse
/// (no normalization).
void fft_radix2(std::vector<std::complex<double>>& data, int sign) {
  const std::size_t n = data.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * kTwoPi / static_cast<double>(len);
    const std::complex<double> wn(std::cos(angle), std::sin(angle));
    for (std::size_t start = 0; start < n; start += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> even = data[start + k];
        const std::complex<double> odd = data[start + k + len / 2] * w;
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= wn;
      }
    }
  }
}

std::vector<std::complex<double>> transform(const std::vector<std::complex<double>>& input,
                                            int sign) {
  const std::size_t n = input.size();
  if (n == 0) return {};
  if (is_power_of_two(n)) {
    std::vector<std::complex<double>> data = input;
    fft_radix2(data, sign);
    return data;
  }
  // Direct transform with compensated accumulation: the interpolation's
  // round-off floor is set right here, so every extra digit matters. The
  // pair (j, k) takes twiddle((j*k) mod n), read from a table of the n
  // exact-angle twiddles; the index is carried by addition.
  std::vector<std::complex<double>> table(n);
  for (std::size_t m = 0; m < n; ++m) table[m] = twiddle(m, n, sign);
  std::vector<std::complex<double>> output(n);
  for (std::size_t k = 0; k < n; ++k) {
    KahanSum<std::complex<double>> sum;
    for (std::size_t j = 0, index = 0; j < n; ++j) {
      sum.add(input[j] * table[index]);
      index += k;
      if (index >= n) index -= n;
    }
    output[k] = sum.value();
  }
  return output;
}

}  // namespace

std::vector<std::complex<double>> unit_circle_points(std::size_t count) {
  std::vector<std::complex<double>> points(count);
  for (std::size_t k = 0; k < count; ++k) {
    points[k] = twiddle(k, count, +1);
  }
  return points;
}

std::vector<std::complex<double>> dft(const std::vector<std::complex<double>>& input) {
  return transform(input, -1);
}

std::vector<std::complex<double>> idft(const std::vector<std::complex<double>>& input) {
  std::vector<std::complex<double>> output = transform(input, +1);
  const double scale = output.empty() ? 1.0 : 1.0 / static_cast<double>(output.size());
  for (auto& value : output) value *= scale;
  return output;
}

std::vector<std::complex<double>> coefficients_from_unit_circle_samples(
    const std::vector<std::complex<double>>& samples) {
  // With s_k = exp(+2*pi*j*k/K), P(s_k) = sum_i p_i exp(+2*pi*j*i*k/K) is an
  // unnormalized inverse transform of the coefficients, so recovery is the
  // forward transform divided by K.
  std::vector<std::complex<double>> coeffs = transform(samples, -1);
  const double scale = coeffs.empty() ? 1.0 : 1.0 / static_cast<double>(coeffs.size());
  for (auto& value : coeffs) value *= scale;
  return coeffs;
}

std::vector<ScaledComplex> coefficients_from_unit_circle_samples(
    const std::vector<ScaledComplex>& samples) {
  if (samples.empty()) return {};
  // Align all samples to the largest exponent; anything more than ~1100
  // binary orders below the peak is zero at double precision anyway.
  std::int64_t max_exp = 0;
  bool any_nonzero = false;
  for (const auto& sample : samples) {
    if (sample.is_zero()) continue;
    max_exp = any_nonzero ? std::max(max_exp, sample.exponent2()) : sample.exponent2();
    any_nonzero = true;
  }
  if (!any_nonzero) return std::vector<ScaledComplex>(samples.size());

  std::vector<std::complex<double>> aligned(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].is_zero()) continue;
    const std::int64_t gap = max_exp - samples[i].exponent2();
    aligned[i] = gap > 1100 ? std::complex<double>()
                            : samples[i].mantissa() * std::ldexp(1.0, static_cast<int>(-gap));
  }
  const std::vector<std::complex<double>> coeffs =
      coefficients_from_unit_circle_samples(aligned);
  std::vector<ScaledComplex> output(coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    output[i] = ScaledComplex::from_mantissa_exp(coeffs[i], max_exp);
  }
  return output;
}

}  // namespace symref::numeric
