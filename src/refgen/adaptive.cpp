#include "refgen/adaptive.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "interp/interpolator.h"
#include "netlist/canonical.h"
#include "numeric/stats.h"
#include "refgen/naive.h"
#include "support/log.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace symref::refgen {

using interp::KnownCoefficient;
using interp::UnitCircleSampler;
using interp::ValidRegion;
using numeric::ScaledComplex;
using numeric::ScaledDouble;

const char* purpose_name(IterationPurpose purpose) noexcept {
  switch (purpose) {
    case IterationPurpose::Initial: return "initial";
    case IterationPurpose::Upward: return "upward";
    case IterationPurpose::Downward: return "downward";
    case IterationPurpose::GapRepair: return "gap-repair";
  }
  return "?";
}

namespace {

/// Book-keeping for one polynomial (numerator or denominator).
struct PolyTracker {
  int degree = 0;  // homogeneity degree (denormalization exponent)
  PolynomialReference ref;

  [[nodiscard]] int bound() const noexcept { return ref.order_bound(); }
  [[nodiscard]] bool complete() const noexcept { return ref.complete(); }

  [[nodiscard]] int lowest_unknown() const noexcept {
    for (int i = 0; i <= bound(); ++i) {
      if (!ref.at(i).known()) return i;
    }
    return -1;
  }
  [[nodiscard]] int highest_unknown() const noexcept {
    for (int i = bound(); i >= 0; --i) {
      if (!ref.at(i).known()) return i;
    }
    return -1;
  }
  /// Highest/lowest index with an actually interpolated value (zero-tail
  /// markings have no iteration record to anchor a new scaling on).
  [[nodiscard]] int highest_interpolated() const noexcept {
    for (int i = bound(); i >= 0; --i) {
      if (ref.at(i).status == CoefficientStatus::Interpolated) return i;
    }
    return -1;
  }
  [[nodiscard]] int lowest_interpolated() const noexcept {
    for (int i = 0; i <= bound(); ++i) {
      if (ref.at(i).status == CoefficientStatus::Interpolated) return i;
    }
    return -1;
  }
  /// k of eq. (17): length of the known run p_0..p_{k-1}.
  [[nodiscard]] int known_low_run() const noexcept {
    const int low = lowest_unknown();
    return low < 0 ? bound() + 1 : low;
  }

  /// All known nonzero coefficients normalized to the given scaling, for
  /// the eq. (17) subtraction, together with the worst-case absolute noise
  /// that subtracting them injects.
  [[nodiscard]] std::pair<std::vector<KnownCoefficient>, ScaledDouble> known_normalized(
      double f, double g) const {
    std::vector<KnownCoefficient> known;
    ScaledDouble noise(0.0);
    for (int i = 0; i <= bound(); ++i) {
      const Coefficient& c = ref.at(i);
      if (!c.known() || c.value.is_zero()) continue;
      const ScaledDouble normalized = normalize_coefficient(c.value, i, degree, f, g);
      const ScaledDouble this_noise =
          normalized.abs() * ScaledDouble(c.relative_accuracy);
      if (this_noise > noise) noise = this_noise;
      known.push_back({i, normalized});
    }
    return {std::move(known), noise};
  }

  void mark_zero_tail(int from, int to) {
    for (int i = std::max(0, from); i <= std::min(to, bound()); ++i) {
      Coefficient& c = ref.at(i);
      if (!c.known()) {
        c.value = ScaledDouble(0.0);
        c.status = CoefficientStatus::ZeroTail;
        c.relative_accuracy = 1.0;
      }
    }
  }
};

/// Tilt factor from eq. (14)/(15): q^(anchor-m) = (|p_m|/|p_anchor|) * 10^decades,
/// evaluated on the anchor iteration's region (indices are residual-space,
/// but only differences enter).
double tilt_factor(const ValidRegion& region, const std::vector<ScaledComplex>& normalized,
                   bool upward, double decades) {
  const int anchor = upward ? region.end : region.begin;
  const int peak = region.max_index;
  if (anchor != peak && anchor >= 0 &&
      anchor < static_cast<int>(normalized.size())) {
    const ScaledDouble p_anchor = normalized[static_cast<std::size_t>(anchor)].real().abs();
    if (!p_anchor.is_zero()) {
      const double log_q = ((region.max_value / p_anchor).log10_abs() + decades) /
                           static_cast<double>(anchor - peak);
      return std::pow(10.0, log_q);
    }
  }
  // Degenerate profile (peak on the region edge): move one full validity
  // window per step.
  const double per_index = decades / std::max(1, region.width());
  return std::pow(10.0, upward ? per_index : -per_index);
}

}  // namespace

AdaptiveScalingEngine::AdaptiveScalingEngine(const mna::NodalSystem& system,
                                             const mna::TransferSpec& spec,
                                             AdaptiveOptions options,
                                             const mna::CofactorEvaluator* evaluator)
    : system_(system), spec_(spec), options_(std::move(options)), external_evaluator_(evaluator) {}

std::pair<double, double> AdaptiveScalingEngine::initial_scales() const {
  const double mean_c = numeric::mean(system_.circuit().capacitor_values());
  const double mean_g = numeric::mean(system_.circuit().conductance_values());
  return {mean_c > 0.0 ? 1.0 / mean_c : 1.0, mean_g > 0.0 ? 1.0 / mean_g : 1.0};
}

AdaptiveResult AdaptiveScalingEngine::run() {
  support::Timer total_timer;
  AdaptiveResult result;

  // The caller's evaluator when given (it reads the counters afterwards);
  // otherwise a local one.
  std::optional<mna::CofactorEvaluator> local_evaluator;
  if (external_evaluator_ == nullptr) local_evaluator.emplace(system_, spec_);
  const mna::CofactorEvaluator& evaluator =
      external_evaluator_ != nullptr ? *external_evaluator_ : *local_evaluator;
  const int circuit_bound = system_.order_bound();

  // One pool for the whole run (workers persist across iterations). The
  // samples of an iteration are the parallel unit; everything downstream
  // (IDFT, region logic) runs on the caller in index order.
  std::unique_ptr<support::ThreadPool> pool;
  if (options_.threads != 1) pool = std::make_unique<support::ThreadPool>(options_.threads);

  PolyTracker num;
  num.degree = evaluator.numerator_degree();
  num.ref = PolynomialReference(std::min(circuit_bound, num.degree));
  PolyTracker den;
  den.degree = evaluator.denominator_degree();
  den.ref = PolynomialReference(std::min(circuit_bound, den.degree));
  result.numerator_degree = num.degree;
  result.denominator_degree = den.degree;

  auto [f, g] = initial_scales();
  IterationPurpose purpose = IterationPurpose::Initial;
  double pending_q = 1.0;
  // Consecutive failed attempts per direction; each failure escalates the
  // next tilt, kNoProgressLimit failures declare the span negligible.
  int fails_up = 0;
  int fails_down = 0;
  // Gap-repair state: successive attempts walk the binary fractions of the
  // log-interpolation between the bracketing scalings (1/2, 1/4, 3/4, ...),
  // so repeated failures refine the search instead of repeating eq. (16)'s
  // midpoint. A gap that survives all attempts is declared negligible —
  // §3.1: such coefficients "might never be above the error level".
  long gap_key = -1;  // driver flag * large + gap index
  int gap_attempt = 0;
  constexpr int kGapAttemptLimit = 7;
  static constexpr double kGapFractions[kGapAttemptLimit] = {0.5,   0.25,  0.75, 0.125,
                                                             0.375, 0.625, 0.875};

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.cancel.cancelled()) throw support::CancelledError();
    support::Timer iteration_timer;
    IterationRecord record;
    record.index = iter;
    record.purpose = purpose;
    record.f_scale = f;
    record.g_scale = g;
    record.q = pending_q;

    // --- Deflation setup (eq. (17)) per polynomial ------------------------
    // Deflation pays off only when extending upward: the subtracted knowns
    // are then far below the target window, so their (sigma-digit) error
    // cannot bury it. Downward/gap windows sit below the dominant knowns,
    // where the subtraction noise would shrink the valid region to nothing;
    // those run as plain interpolations (the paper's §3.3 example applies
    // eq. (17) on its upward march only).
    const bool deflate =
        options_.use_deflation && iter > 0 && purpose == IterationPurpose::Upward;
    auto shift_of = [&](const PolyTracker& poly) {
      return deflate && !poly.complete() ? poly.known_low_run() : 0;
    };
    auto span_of = [&](const PolyTracker& poly) {
      if (poly.complete()) return 0;
      const int high = deflate ? poly.highest_unknown() : poly.bound();
      return high - shift_of(poly) + 1;
    };
    record.num_shift = shift_of(num);
    record.den_shift = shift_of(den);
    const int base_points = std::max({span_of(num), span_of(den), 1});

    // --- Sample both polynomials at the unit-circle points ----------------
    // If a sample lands on (or near) a pole of the scaled system — a
    // natural frequency exactly on the unit circle — its evaluation error
    // explodes. Adding a point shifts every angle, so retry with K+1.
    std::vector<ScaledComplex> num_unique;
    std::vector<ScaledComplex> den_unique;
    ScaledDouble num_eval_noise(0.0);
    ScaledDouble den_eval_noise(0.0);
    int points = base_points;
    bool singular = false;
    constexpr int kMaxPointRetries = 3;
    constexpr double kSampleErrorRetryThreshold = 1e-6;
    for (int attempt = 0; attempt <= kMaxPointRetries; ++attempt) {
      points = base_points + attempt;
      const UnitCircleSampler sampler(points, options_.conjugate_symmetry);
      num_unique.clear();
      den_unique.clear();
      num_eval_noise = ScaledDouble(0.0);
      den_eval_noise = ScaledDouble(0.0);
      singular = false;
      double worst_proxy = 0.0;
      // The whole point batch evaluates in parallel (independent replays of
      // one shared plan, bit-identical at any thread count); the noise and
      // retry accounting below walks the results in point order. On a
      // singular iteration the batch still evaluates every point (the
      // scan stops at the first failure) — the tilt hunt rarely produces
      // one, and per-point independence is what buys the parallelism.
      const auto batch = evaluator.evaluate_batch(sampler.evaluation_points(), f, g, pool.get());
      for (const auto& sample : batch) {
        if (!sample.ok) {
          singular = true;
          break;
        }
        num_unique.push_back(sample.numerator);
        den_unique.push_back(sample.denominator);
        // Absolute evaluation error of this sample; the IDFT averages
        // sample errors, so the worst one bounds the coefficient noise.
        // (Only the denominator error drives the near-pole retry: a tiny
        // port voltage inflates the numerator proxy legitimately, and the
        // noise floor — not resampling — is the right response to that.)
        worst_proxy = std::max(worst_proxy, sample.denominator_error);
        num_eval_noise =
            std::max(num_eval_noise,
                     sample.numerator.abs() * ScaledDouble(sample.numerator_error));
        den_eval_noise =
            std::max(den_eval_noise,
                     sample.denominator.abs() * ScaledDouble(sample.denominator_error));
        ++record.evaluations;
      }
      if (!singular && worst_proxy <= kSampleErrorRetryThreshold) break;
      if (attempt == kMaxPointRetries) break;  // keep the last attempt
    }
    record.points = points;
    record.deflated = deflate && base_points < std::max(num.bound(), den.bound()) + 1;
    record.num_evaluation_noise = num_eval_noise;
    record.den_evaluation_noise = den_eval_noise;
    // Rebuild the sampler that produced the accepted samples (deterministic
    // for a given point count), for the expansion/deflation below.
    const UnitCircleSampler sampler(points, options_.conjugate_symmetry);
    if (singular && iter == 0) {
      // Singular at the heuristic scaling: the circuit itself is
      // ill-posed (floating section, zero-admittance cut). Give up.
      result.termination = "singular_system";
      record.seconds = iteration_timer.seconds();
      result.iterations.push_back(std::move(record));
      if (options_.on_iteration) options_.on_iteration(result.iterations.back());
      break;
    }
    // A singular system deep into a hunt just means the tilt pushed the
    // matrix beyond factorability — treat it as a no-progress window (the
    // regions stay empty) and let the failure accounting decide.
    result.total_evaluations += record.evaluations;

    // --- Recover coefficients, extract regions, absorb new values ---------
    auto process = [&](PolyTracker& poly, const std::vector<ScaledComplex>& unique,
                       int shift, const ScaledDouble& eval_noise,
                       std::vector<ScaledComplex>& normalized_out,
                       ValidRegion& region_out, ScaledDouble& noise_out,
                       int& new_count_out) {
      if (poly.complete()) return;
      std::vector<ScaledComplex> samples = unique;
      ScaledDouble noise(0.0);
      if (deflate) {
        auto [known, subtraction_noise] = poly.known_normalized(f, g);
        noise = subtraction_noise;
        if (!known.empty() || shift > 0) {
          // Every sample deflates independently (eq. (17) is per-point), so
          // the subtraction parallelizes like the evaluations themselves;
          // per-slot writes keep the result identical at any thread count.
          auto deflate_range = [&](std::size_t begin, std::size_t end, int) {
            for (std::size_t k = begin; k < end; ++k) {
              samples[k] = interp::deflate_sample(samples[k], sampler.evaluation_points()[k],
                                                  known, shift);
            }
          };
          if (pool) {
            pool->parallel_for(samples.size(), deflate_range);
          } else {
            deflate_range(0, samples.size(), 0);
          }
        }
      }
      noise_out = noise;
      const std::vector<ScaledComplex> coeffs =
          interp::coefficients_from_samples(sampler.expand(samples));
      normalized_out = coeffs;
      const std::vector<ScaledDouble> magnitudes = interp::real_magnitudes(coeffs);
      // The acceptance floor must clear two noise sources beyond the IDFT's
      // own round-off: the eq. (17) subtraction error (full sigma margin)
      // and the matrix-evaluation error (2-decade margin; demanding sigma
      // digits against it would reject coefficients the paper's own 6-digit
      // criterion accepts).
      const ScaledDouble eval_floor_contribution =
          eval_noise * ScaledDouble(std::pow(10.0, 2.0 - options_.sigma));
      const ValidRegion region = interp::find_valid_region(
          magnitudes, {options_.sigma, std::max(noise, eval_floor_contribution)});
      region_out = region;

      if (region.max_value.is_zero()) {
        // Identically zero samples: with no deflation this means the whole
        // polynomial is zero (an all-zero numerator, say).
        if (!deflate) poly.mark_zero_tail(0, poly.bound());
        return;
      }
      if (region.empty()) return;

      // Absolute error of every recovered coefficient: transform round-off
      // plus subtraction noise plus evaluation noise.
      const ScaledDouble absolute_error =
          region.max_value * ScaledDouble(std::pow(10.0, -interp::kNoiseDecades)) +
          noise + eval_noise;
      for (int i = region.begin; i <= region.end; ++i) {
        const int index = i + shift;
        if (index > poly.bound()) continue;
        const ScaledDouble normalized = coeffs[static_cast<std::size_t>(i)].real();
        const ScaledDouble value =
            denormalize_coefficient(normalized, index, poly.degree, f, g);
        Coefficient& slot = poly.ref.at(index);
        if (!slot.known()) {
          slot.value = value;
          slot.status = CoefficientStatus::Interpolated;
          slot.iteration = iter;
          double accuracy = 1.0;
          if (!normalized.is_zero()) {
            accuracy = std::min(1.0, (absolute_error / normalized.abs()).to_double());
          }
          slot.relative_accuracy = std::max(accuracy, 1e-16);
          ++new_count_out;
        } else if (slot.status == CoefficientStatus::Interpolated) {
          const double mismatch = numeric::relative_difference(slot.value, value);
          record.max_overlap_mismatch = std::max(record.max_overlap_mismatch, mismatch);
        }
      }
    };

    if (!singular) {
      process(num, num_unique, record.num_shift, num_eval_noise, record.num_normalized,
              record.num_region, record.num_subtraction_noise,
              record.num_new_coefficients);
      process(den, den_unique, record.den_shift, den_eval_noise, record.den_normalized,
              record.den_region, record.den_subtraction_noise,
              record.den_new_coefficients);
    }

    record.seconds = iteration_timer.seconds();
    result.iterations.push_back(std::move(record));
    const IterationRecord& last = result.iterations.back();
    if (options_.on_iteration) options_.on_iteration(last);

    const bool driver_is_den = !den.complete();
    PolyTracker& driver = driver_is_den ? den : num;
    const int driver_new =
        driver_is_den ? last.den_new_coefficients : last.num_new_coefficients;

    SYMREF_DEBUG("adaptive iter " << iter << " (" << purpose_name(last.purpose)
                                  << ") f=" << f << " g=" << g << " pts=" << last.points
                                  << " den " << last.den_region.to_string() << " +"
                                  << last.den_new_coefficients << " num +"
                                  << last.num_new_coefficients);

    if (num.complete() && den.complete()) {
      result.complete = true;
      result.termination = "complete";
      break;
    }
    if (driver.highest_interpolated() < 0) {
      // Nothing recovered at all — the scaling is catastrophically off.
      result.termination = "no_valid_region";
      break;
    }

    // --- Failure accounting and negligible-span detection ------------------
    if (last.purpose == IterationPurpose::Downward) {
      fails_down = driver_new == 0 ? fails_down + 1 : 0;
    } else if (last.purpose == IterationPurpose::Upward) {
      fails_up = driver_new == 0 ? fails_up + 1 : 0;
    }
    if (fails_down >= kNoProgressLimit) {
      driver.mark_zero_tail(0, driver.lowest_interpolated() - 1);
      fails_down = 0;
    }
    if (fails_up >= kNoProgressLimit) {
      driver.mark_zero_tail(driver.highest_interpolated() + 1, driver.bound());
      fails_up = 0;
    }
    if (num.complete() && den.complete()) {
      result.complete = true;
      result.termination = "complete";
      break;
    }

    // --- Choose the next move: anchor on the region bordering the target ---
    // Downward first (cheap: few points under deflation), then upward, then
    // interior gaps. The new scaling is always derived from the iteration
    // whose region is adjacent to the unknown span, so the engine never
    // re-traverses known territory.
    const int low_unknown = driver.lowest_unknown();
    const int high_unknown = driver.highest_unknown();
    const int low_interp = driver.lowest_interpolated();
    const int high_interp = driver.highest_interpolated();

    const bool go_down = low_unknown >= 0 && low_unknown < low_interp;
    const bool go_up = !go_down && high_unknown > high_interp;
    const bool go_gap = !go_down && !go_up && low_unknown >= 0;

    if (go_gap) {
      // eq. (16), generalized: log-interpolate between the scale factors of
      // the iterations bracketing the gap. The first attempt is eq. (16)'s
      // geometric mean (t = 1/2); failed attempts walk the binary fractions
      // to refine the search.
      const long key = (driver_is_den ? 1000000L : 2000000L) + low_unknown;
      if (key != gap_key) {
        gap_key = key;
        gap_attempt = 0;
      }
      if (gap_attempt >= kGapAttemptLimit) {
        // Unobservable at every window between the brackets: negligible at
        // working precision (§3.1). Mark the interior run and move on.
        int run_end = low_unknown;
        while (run_end < driver.bound() && !driver.ref.at(run_end + 1).known()) ++run_end;
        SYMREF_DEBUG("adaptive: gap " << low_unknown << ".." << run_end
                                      << " declared negligible after " << gap_attempt
                                      << " attempts");
        driver.mark_zero_tail(low_unknown, run_end);
        gap_key = -1;
        continue;
      }
      int below_iter = -1;
      int above_iter = -1;
      for (int i = low_unknown - 1; i >= 0; --i) {
        if (driver.ref.at(i).status == CoefficientStatus::Interpolated) {
          below_iter = driver.ref.at(i).iteration;
          break;
        }
      }
      for (int i = low_unknown + 1; i <= driver.bound(); ++i) {
        if (driver.ref.at(i).status == CoefficientStatus::Interpolated) {
          above_iter = driver.ref.at(i).iteration;
          break;
        }
      }
      if (below_iter < 0 || above_iter < 0) {
        result.termination = "gap_unresolved";
        break;
      }
      const IterationRecord& r1 = result.iterations[static_cast<std::size_t>(below_iter)];
      const IterationRecord& r2 = result.iterations[static_cast<std::size_t>(above_iter)];
      const double t = kGapFractions[gap_attempt];
      ++gap_attempt;
      const double f_new = std::pow(r1.f_scale, 1.0 - t) * std::pow(r2.f_scale, t);
      const double g_new = std::pow(r1.g_scale, 1.0 - t) * std::pow(r2.g_scale, t);
      pending_q = (f_new / g_new) / (f / g);
      f = f_new;
      g = g_new;
      purpose = IterationPurpose::GapRepair;
      continue;
    }
    gap_key = -1;  // left gap mode: reset the attempt ladder

    // Anchor iteration: produced the known coefficient adjacent to the span.
    const int anchor_index = go_down ? low_interp : high_interp;
    const int anchor_iter = driver.ref.at(anchor_index).iteration;
    const IterationRecord& anchor =
        result.iterations[static_cast<std::size_t>(anchor_iter)];
    const ValidRegion& anchor_region = driver_is_den ? anchor.den_region : anchor.num_region;
    const std::vector<ScaledComplex>& anchor_normalized =
        driver_is_den ? anchor.den_normalized : anchor.num_normalized;

    const double decades = interp::kNoiseDecades + options_.tuning_r;
    double q = tilt_factor(anchor_region, anchor_normalized, go_up, decades);
    // Escalate past windows that produced nothing (noise-buried residuals).
    const int fails = go_up ? fails_up : fails_down;
    if (fails > 0) q = std::pow(q, 1.0 + fails);

    purpose = go_up ? IterationPurpose::Upward : IterationPurpose::Downward;
    pending_q = q;
    double f_new = anchor.f_scale;
    double g_new = anchor.g_scale;
    if (options_.simultaneous_scaling) {
      const double root = std::sqrt(q);
      f_new *= root;
      g_new /= root;
    } else {
      f_new *= q;
    }
    f = f_new;
    g = g_new;
  }

  if (result.termination.empty()) result.termination = "max_iterations";
  result.reference = NumericalReference(std::move(num.ref), std::move(den.ref));
  result.complete = result.reference.complete();
  if (result.complete && result.termination == "max_iterations") {
    result.termination = "complete";
  }
  result.seconds = total_timer.seconds();
  return result;
}

AdaptiveResult generate_reference(const netlist::Circuit& circuit,
                                  const mna::TransferSpec& spec,
                                  const AdaptiveOptions& options) {
  const netlist::Circuit canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  AdaptiveScalingEngine engine(system, spec, options);
  return engine.run();
}

}  // namespace symref::refgen
