#include "refgen/naive.h"

#include "interp/interpolator.h"

namespace symref::refgen {

using numeric::ScaledComplex;
using numeric::ScaledDouble;

ScaledDouble denormalize_coefficient(const ScaledDouble& normalized, int index, int degree,
                                     double f_scale, double g_scale) {
  const ScaledDouble f_power = ScaledDouble::pow(ScaledDouble(f_scale), index);
  const ScaledDouble g_power = ScaledDouble::pow(ScaledDouble(g_scale), degree - index);
  return normalized / (f_power * g_power);
}

ScaledDouble normalize_coefficient(const ScaledDouble& denormalized, int index, int degree,
                                   double f_scale, double g_scale) {
  const ScaledDouble f_power = ScaledDouble::pow(ScaledDouble(f_scale), index);
  const ScaledDouble g_power = ScaledDouble::pow(ScaledDouble(g_scale), degree - index);
  return denormalized * f_power * g_power;
}

BaselineResult fixed_scale_interpolation(const mna::NodalSystem& system,
                                         const mna::TransferSpec& spec, double f_scale,
                                         double g_scale, const BaselineOptions& options) {
  BaselineResult result;
  result.f_scale = f_scale;
  result.g_scale = g_scale;

  const mna::CofactorEvaluator evaluator(system, spec);
  const int bound = system.order_bound();
  const int points = options.points > 0 ? options.points : bound + 1;
  result.points = points;

  const interp::UnitCircleSampler sampler(points, options.conjugate_symmetry);
  std::vector<ScaledComplex> num_unique;
  std::vector<ScaledComplex> den_unique;
  num_unique.reserve(sampler.evaluation_points().size());
  den_unique.reserve(sampler.evaluation_points().size());
  for (const std::complex<double>& s_hat : sampler.evaluation_points()) {
    const auto sample = evaluator.evaluate(s_hat, f_scale, g_scale);
    if (!sample.ok) return result;  // singular: report !ok
    num_unique.push_back(sample.numerator);
    den_unique.push_back(sample.denominator);
    ++result.evaluations;
  }

  result.numerator_normalized =
      interp::coefficients_from_samples(sampler.expand(num_unique));
  result.denominator_normalized =
      interp::coefficients_from_samples(sampler.expand(den_unique));

  const interp::RegionOptions region_options{options.sigma};
  const auto num_magnitudes = interp::real_magnitudes(result.numerator_normalized);
  const auto den_magnitudes = interp::real_magnitudes(result.denominator_normalized);
  result.numerator_region = interp::find_valid_region(num_magnitudes, region_options);
  result.denominator_region = interp::find_valid_region(den_magnitudes, region_options);

  const int num_degree = evaluator.numerator_degree();
  const int den_degree = evaluator.denominator_degree();
  result.numerator_denormalized.resize(result.numerator_normalized.size());
  result.denominator_denormalized.resize(result.denominator_normalized.size());
  for (std::size_t i = 0; i < result.numerator_normalized.size(); ++i) {
    result.numerator_denormalized[i] = denormalize_coefficient(
        result.numerator_normalized[i].real(), static_cast<int>(i), num_degree, f_scale,
        g_scale);
  }
  for (std::size_t i = 0; i < result.denominator_normalized.size(); ++i) {
    result.denominator_denormalized[i] = denormalize_coefficient(
        result.denominator_normalized[i].real(), static_cast<int>(i), den_degree, f_scale,
        g_scale);
  }
  result.ok = true;
  return result;
}

BaselineResult naive_interpolation(const mna::NodalSystem& system,
                                   const mna::TransferSpec& spec,
                                   const BaselineOptions& options) {
  return fixed_scale_interpolation(system, spec, 1.0, 1.0, options);
}

}  // namespace symref::refgen
