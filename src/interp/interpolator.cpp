#include "interp/interpolator.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "numeric/dft.h"

namespace symref::interp {

using numeric::ScaledComplex;
using numeric::ScaledDouble;

UnitCircleSampler::UnitCircleSampler(int point_count, bool conjugate_symmetry)
    : point_count_(point_count), symmetric_(conjugate_symmetry) {
  if (point_count < 1) throw std::invalid_argument("UnitCircleSampler: need >= 1 point");
  const std::vector<std::complex<double>> all =
      numeric::unit_circle_points(static_cast<std::size_t>(point_count));
  const int unique = symmetric_ ? point_count / 2 + 1 : point_count;
  evaluation_points_.assign(all.begin(), all.begin() + unique);
}

std::vector<ScaledComplex> UnitCircleSampler::expand(
    const std::vector<ScaledComplex>& unique_values) const {
  assert(static_cast<int>(unique_values.size()) ==
         static_cast<int>(evaluation_points_.size()));
  if (!symmetric_) return unique_values;
  std::vector<ScaledComplex> full(static_cast<std::size_t>(point_count_));
  const int unique = static_cast<int>(unique_values.size());
  for (int k = 0; k < unique; ++k) full[static_cast<std::size_t>(k)] = unique_values[static_cast<std::size_t>(k)];
  for (int k = unique; k < point_count_; ++k) {
    // s_k = conj(s_{K-k})  =>  P(s_k) = conj(P(s_{K-k})).
    full[static_cast<std::size_t>(k)] =
        unique_values[static_cast<std::size_t>(point_count_ - k)].conj();
  }
  return full;
}

std::vector<ScaledComplex> coefficients_from_samples(
    const std::vector<ScaledComplex>& samples) {
  return numeric::coefficients_from_unit_circle_samples(samples);
}

std::vector<ScaledDouble> real_magnitudes(const std::vector<ScaledComplex>& coefficients) {
  std::vector<ScaledDouble> magnitudes;
  magnitudes.reserve(coefficients.size());
  for (const ScaledComplex& c : coefficients) magnitudes.push_back(c.real().abs());
  return magnitudes;
}

ScaledComplex deflate_sample(const ScaledComplex& sample, std::complex<double> s_hat,
                             const std::vector<KnownCoefficient>& known, int shift) {
  ScaledComplex residual = sample;
  const double theta = std::arg(s_hat);
  for (const KnownCoefficient& kc : known) {
    // p_i * s^i; powers of a unit-magnitude point are computed by polar form
    // to avoid error accumulation for large i.
    const double angle = theta * static_cast<double>(kc.index);
    const ScaledComplex power(std::complex<double>(std::cos(angle), std::sin(angle)));
    residual -= ScaledComplex(kc.value) * power;
  }
  if (shift != 0) {
    const double angle = -theta * static_cast<double>(shift);
    residual *= ScaledComplex(std::complex<double>(std::cos(angle), std::sin(angle)));
  }
  return residual;
}

}  // namespace symref::interp
