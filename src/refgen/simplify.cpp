#include "refgen/simplify.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <numbers>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mna/ac.h"
#include "mna/errors.h"
#include "netlist/canonical.h"
#include "support/cancellation.h"
#include "symbolic/det.h"
#include "symbolic/errors.h"
#include "symbolic/sdg.h"

namespace symref::refgen {
namespace {

using numeric::ScaledComplex;
using numeric::ScaledDouble;
using Complex = std::complex<double>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Surrogate factor for short trials: multiplying a conductance by 1e12
/// makes it ~12 decades stiffer than anything else in the matrix while
/// keeping the stamp pattern (and hence the replayable LU plan) intact.
constexpr double kShortSurrogate = 1e12;

/// Share of the error budget the pruning stage may spend; the rest is
/// enumeration headroom, which is where the epsilons come from.
constexpr double kPruneShare = 0.35;

/// Coefficients whose band weight is below this share of the budget are
/// dropped wholesale; their cost lands in the certificate.
constexpr double kCoefficientSkipFactor = 1e-3;

void check_cancel(const support::CancellationToken& cancel) {
  if (cancel.cancelled()) throw support::CancelledError();
}

std::vector<double> band_grid(const SimplifyOptions& options) {
  if (!(options.f_start_hz > 0.0) || !(options.f_stop_hz >= options.f_start_hz) ||
      !std::isfinite(options.f_stop_hz)) {
    throw std::invalid_argument(
        "simplify_transfer: band must satisfy 0 < f_start <= f_stop (finite)");
  }
  if (options.band_points < 1 || options.band_points > mna::kMaxGridPoints) {
    throw std::invalid_argument("simplify_transfer: band needs 1 to 2^20 points");
  }
  std::vector<double> freqs;
  freqs.reserve(static_cast<std::size_t>(options.band_points));
  if (options.band_points == 1 || options.f_stop_hz == options.f_start_hz) {
    freqs.push_back(options.f_start_hz);
    return freqs;
  }
  const double step =
      std::log10(options.f_stop_hz / options.f_start_hz) / (options.band_points - 1);
  for (int i = 0; i < options.band_points; ++i) {
    freqs.push_back(options.f_start_hz * std::pow(10.0, step * i));
  }
  freqs.back() = options.f_stop_hz;
  return freqs;
}

std::vector<Complex> to_s_points(const std::vector<double>& freqs) {
  std::vector<Complex> s;
  s.reserve(freqs.size());
  for (const double f : freqs) s.emplace_back(0.0, 2.0 * std::numbers::pi * f);
  return s;
}

std::optional<ScaledComplex> sample_ratio(const mna::CofactorEvaluator::Sample& sample) {
  if (!sample.ok || sample.denominator.is_zero()) return std::nullopt;
  return sample.numerator / sample.denominator;
}

/// Max relative band error of `trial` transfer samples against the baseline
/// responses; infinity when any point is singular.
double band_error(const std::vector<mna::CofactorEvaluator::Sample>& trial,
                  const std::vector<ScaledComplex>& baseline) {
  double worst = 0.0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const auto h = sample_ratio(trial[i]);
    if (!h) return kInf;
    const ScaledDouble scale = baseline[i].abs();
    if (scale.is_zero()) return kInf;
    worst = std::max(worst, ((*h - baseline[i]).abs() / scale).to_double());
  }
  return worst;
}

struct PruneCandidate {
  std::string element;
  bool open = true;
  double surrogate = 0.0;
  double error = kInf;
};

/// Nodes whose identity the spec depends on: merging two of them (or losing
/// one) changes the question being asked, so short candidates across two
/// protected nodes are never tried.
std::set<int> protected_nodes(const netlist::Circuit& canonical,
                              const mna::TransferSpec& spec) {
  std::set<int> nodes = {0};
  for (const std::string* name : {&spec.in_pos, &spec.in_neg, &spec.out_pos, &spec.out_neg}) {
    const auto index = canonical.find_node(*name);
    if (index) nodes.insert(*index);
  }
  return nodes;
}

std::vector<PruneCandidate> make_candidates(const netlist::Circuit& canonical,
                                            const std::set<int>& keep_nodes) {
  std::vector<PruneCandidate> candidates;
  for (const netlist::Element& e : canonical.elements()) {
    if (e.value == 0.0) continue;
    candidates.push_back({e.name, /*open=*/true, 0.0, kInf});
    // Short trials only for conductances: a capacitor's surrogate admittance
    // jw*C*K is band-dependent and a VCCS has no "short" notion. Opens are
    // offered for every kind.
    if (e.kind == netlist::ElementKind::Conductance && e.node_pos != e.node_neg &&
        !(keep_nodes.count(e.node_pos) && keep_nodes.count(e.node_neg))) {
      candidates.push_back({e.name, /*open=*/false, e.value * kShortSurrogate, kInf});
    }
  }
  return candidates;
}

/// Band error of one pattern-preserving value-surrogate trial: copy the
/// circuit, overwrite the candidate's value, rebind the lane evaluator onto
/// the new system and replay the pinned plan over the band. A pure function
/// of (plan, candidate) — which is what keeps the parallel ranking
/// bit-identical at every thread count.
double surrogate_error(const netlist::Circuit& base, const PruneCandidate& candidate,
                       mna::CofactorEvaluator& lane, const std::vector<Complex>& s_points,
                       const std::vector<ScaledComplex>& baseline) {
  netlist::Circuit trial = base;
  trial.set_element_value(candidate.element, candidate.open ? 0.0 : candidate.surrogate);
  const mna::NodalSystem system(trial);
  lane.rebind(system);
  return band_error(lane.evaluate_pinned_batch(s_points, 1.0, 1.0), baseline);
}

/// Apply the first `count` accepted actions for real and drop elements whose
/// stamp vanished: node merges can leave two-terminal self-loops (net-zero
/// stamps) and VCCS with collapsed sense pairs; their symbols would only
/// feed cancelling term pairs to the generators.
netlist::Circuit reduce_circuit(const netlist::Circuit& canonical,
                                const std::vector<SimplifyPruneAction>& actions,
                                std::size_t count) {
  netlist::Circuit reduced = canonical;
  for (std::size_t i = 0; i < count; ++i) {
    if (actions[i].op == "open") {
      reduced.remove_element(actions[i].element);
    } else {
      reduced.short_element(actions[i].element);
    }
  }
  std::vector<std::string> dead;
  for (const netlist::Element& e : reduced.elements()) {
    const bool loop = e.node_pos == e.node_neg;
    const bool dead_sense =
        e.kind == netlist::ElementKind::Vccs && e.ctrl_pos == e.ctrl_neg;
    if (loop || dead_sense) dead.push_back(e.name);
  }
  for (const std::string& name : dead) reduced.remove_element(name);
  return reduced;
}

/// One enumerated term with its precomputed band contributions.
struct ModelTerm {
  symbolic::Term term;
  ScaledDouble value;                  // signed design-point product value
  std::vector<ScaledComplex> contrib;  // value * (jw_i)^s_power per band point
};

/// (jw)^k for every band point and every power up to `max_power`.
std::vector<std::vector<ScaledComplex>> jw_powers(const std::vector<double>& freqs,
                                                  int max_power) {
  std::vector<std::vector<ScaledComplex>> powers(
      static_cast<std::size_t>(max_power) + 1,
      std::vector<ScaledComplex>(freqs.size()));
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const ScaledComplex jw(Complex(0.0, 2.0 * std::numbers::pi * freqs[i]));
    ScaledComplex acc(1.0);
    for (int k = 0; k <= max_power; ++k) {
      powers[static_cast<std::size_t>(k)][i] = acc;
      acc *= jw;
    }
  }
  return powers;
}

struct SideState {
  symbolic::TransferSide side = symbolic::TransferSide::Numerator;
  const PolynomialReference* reference = nullptr;
  std::vector<int> retained;      // coefficient indices to enumerate
  std::vector<double> weights;    // band weight per retained coefficient
  std::vector<ModelTerm> terms;   // enumerated terms (all retained k)
  std::vector<char> kept;         // per-term keep flag after the drop stage
  std::vector<ScaledComplex> sum; // current model value per band point
};

const char* side_name(symbolic::TransferSide side) {
  return side == symbolic::TransferSide::Numerator ? "numerator" : "denominator";
}

/// Band weight of coefficient k: max over band points of its share of the
/// side polynomial, |c_k| w^k / |side(jw)|. A relative error eps on c_k
/// moves the side value by at most eps * weight at every point.
std::vector<double> coefficient_weights(const PolynomialReference& reference,
                                        const std::vector<int>& ks,
                                        const std::vector<ScaledComplex>& side_values,
                                        const std::vector<double>& freqs,
                                        const std::vector<std::vector<ScaledComplex>>& powers) {
  std::vector<double> weights(ks.size(), 0.0);
  for (std::size_t j = 0; j < ks.size(); ++j) {
    const int k = ks[j];
    const ScaledDouble magnitude = reference.at(k).value.abs();
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const ScaledDouble scale = side_values[i].abs();
      if (scale.is_zero()) continue;
      const ScaledDouble share =
          magnitude * powers[static_cast<std::size_t>(k)][i].abs() / scale;
      weights[j] = std::max(weights[j], share.to_double());
    }
  }
  return weights;
}

}  // namespace

SimplifyResult simplify_transfer(const netlist::Circuit& canonical,
                                 const mna::NodalSystem& system,
                                 const mna::TransferSpec& spec,
                                 const SimplifyOptions& options,
                                 const mna::CofactorEvaluator* evaluator) {
  const auto started = std::chrono::steady_clock::now();
  if (!(options.error_budget > 0.0) || !std::isfinite(options.error_budget)) {
    throw std::invalid_argument("simplify_transfer: error_budget must be positive");
  }
  const std::vector<double> freqs = band_grid(options);
  const std::vector<Complex> s_points = to_s_points(freqs);
  const std::size_t points = freqs.size();
  const support::CancellationToken& cancel = options.engine.cancel;

  SimplifyResult result;
  result.certificate.frequencies_hz = freqs;
  result.certificate.error_budget = options.error_budget;
  result.original_elements = canonical.element_count();

  support::ThreadPool pool(options.engine.threads);

  // ---- 1. Baseline: the exact response the certificate is sworn against.
  std::optional<mna::CofactorEvaluator> own_evaluator;
  if (evaluator == nullptr) {
    own_evaluator.emplace(system, spec);
    evaluator = &*own_evaluator;
  }
  std::vector<ScaledComplex> baseline(points);
  {
    const auto samples = evaluator->evaluate_batch(s_points, 1.0, 1.0, &pool);
    for (std::size_t i = 0; i < points; ++i) {
      const auto h = sample_ratio(samples[i]);
      if (!h) {
        throw mna::SingularSystemError(
            "simplify_transfer: baseline response is singular at " +
            std::to_string(freqs[i]) + " Hz");
      }
      baseline[i] = *h;
    }
  }
  check_cancel(cancel);

  // ---- 2. Replay-ranked pruning (the SBG stage).
  const std::uint64_t plan_baseline_count = evaluator->fresh_factor_count();
  std::vector<SimplifyPruneAction> accepted;
  const double prune_budget = kPruneShare * options.error_budget;
  std::vector<PruneCandidate> candidates =
      make_candidates(canonical, protected_nodes(canonical, spec));
  {
    std::vector<mna::CofactorEvaluator> lanes(static_cast<std::size_t>(pool.size()), *evaluator);
    pool.parallel_for(candidates.size(), [&](std::size_t begin, std::size_t end, int lane) {
      for (std::size_t i = begin; i < end; ++i) {
        if (cancel.cancelled()) return;
        candidates[i].error =
            surrogate_error(canonical, candidates[i], lanes[static_cast<std::size_t>(lane)],
                            s_points, baseline);
      }
    });
    for (const auto& lane : lanes) {
      result.ranking_fresh_factorizations += lane.fresh_factor_count() - plan_baseline_count;
    }
  }
  check_cancel(cancel);
  result.term_evals += candidates.size() * points;

  // Greedy cumulative walk, cheapest candidate first. Ties break on the
  // (element, op) key so the walk order never depends on sort internals.
  std::sort(candidates.begin(), candidates.end(),
            [](const PruneCandidate& a, const PruneCandidate& b) {
              if (a.error != b.error) return a.error < b.error;
              if (a.element != b.element) return a.element < b.element;
              return a.open < b.open;
            });
  netlist::Circuit cumulative = canonical;
  mna::CofactorEvaluator walk(*evaluator);
  std::set<std::string> actioned;
  for (const PruneCandidate& candidate : candidates) {
    if (candidate.error > prune_budget) break;  // sorted: nothing later fits alone
    if (actioned.count(candidate.element)) continue;
    check_cancel(cancel);
    netlist::Circuit trial = cumulative;
    trial.set_element_value(candidate.element, candidate.open ? 0.0 : candidate.surrogate);
    const mna::NodalSystem trial_system(trial);
    walk.rebind(trial_system);
    const double error = band_error(walk.evaluate_pinned_batch(s_points, 1.0, 1.0), baseline);
    result.term_evals += points;
    if (error <= prune_budget) {
      cumulative = std::move(trial);
      actioned.insert(candidate.element);
      accepted.push_back({candidate.element, candidate.open ? "open" : "short", error});
    }
  }
  result.ranking_fresh_factorizations += walk.fresh_factor_count() - plan_baseline_count;

  // Apply the accepted actions for real and measure the EXACT prune error;
  // the surrogate walk can underestimate (a true short merges nodes, the
  // surrogate only stiffens a value), so roll actions back from the worst
  // end until the measurement fits the prune share.
  std::size_t keep_actions = accepted.size();
  double prune_error = 0.0;
  while (keep_actions > 0) {
    check_cancel(cancel);
    const netlist::Circuit probe = reduce_circuit(canonical, accepted, keep_actions);
    bool fits = false;
    try {
      const mna::NodalSystem probe_system(probe);
      const mna::CofactorEvaluator probe_evaluator(probe_system, spec);
      prune_error = band_error(
          probe_evaluator.evaluate_batch(s_points, 1.0, 1.0, &pool), baseline);
      result.term_evals += points;
      fits = prune_error <= prune_budget;
    } catch (const std::exception&) {
      fits = false;  // reduction broke the spec's ports; back off
    }
    if (fits) break;
    --keep_actions;
    prune_error = 0.0;
  }
  accepted.resize(keep_actions);
  result.prune_actions = accepted;

  const netlist::Circuit reduced = reduce_circuit(canonical, accepted, keep_actions);
  const mna::NodalSystem reduced_system(reduced);
  const mna::CofactorEvaluator reduced_evaluator(reduced_system, spec);
  result.reduced_dim = reduced_system.dim();
  result.reduced_elements = reduced.element_count();

  // ---- 3. Numerical reference of the reduced circuit (eq. (3) inputs).
  AdaptiveScalingEngine engine(reduced_system, spec, options.engine, &reduced_evaluator);
  const AdaptiveResult reference_run = engine.run();

  // ---- 4. SDG enumeration with band-weighted epsilon allocation.
  const symbolic::SymbolicNodalMatrix matrix(reduced);
  const double headroom = options.error_budget - prune_error;
  if (!(headroom > 0.0)) {
    throw symbolic::TermEnumerationError(
        "simplify_transfer: pruning consumed the whole error budget");
  }

  SideState sides[2];
  sides[0].side = symbolic::TransferSide::Numerator;
  sides[0].reference = &reference_run.reference.numerator();
  sides[1].side = symbolic::TransferSide::Denominator;
  sides[1].reference = &reference_run.reference.denominator();

  int max_power = 0;
  for (const SideState& s : sides) max_power = std::max(max_power, s.reference->order_bound());
  const auto powers = jw_powers(freqs, max_power);

  for (SideState& s : sides) {
    // Side value over the band from every known coefficient.
    std::vector<ScaledComplex> side_values(points);
    std::vector<int> known;
    for (int k = 0; k <= s.reference->order_bound(); ++k) {
      const Coefficient& c = s.reference->at(k);
      if (c.status != CoefficientStatus::Interpolated || c.value.is_zero()) continue;
      known.push_back(k);
      for (std::size_t i = 0; i < points; ++i) {
        side_values[i] += ScaledComplex(c.value) * powers[static_cast<std::size_t>(k)][i];
      }
    }
    if (known.empty()) {
      throw symbolic::TermEnumerationError(
          std::string("simplify_transfer: ") + side_name(s.side) +
          " reference has no usable coefficients on the band (reference termination: " +
          reference_run.termination + ")");
    }
    const std::vector<double> weights =
        coefficient_weights(*s.reference, known, side_values, freqs, powers);
    const double skip_below = kCoefficientSkipFactor * options.error_budget;
    for (std::size_t j = 0; j < known.size(); ++j) {
      if (weights[j] < skip_below) continue;  // negligible on this band
      s.retained.push_back(known[j]);
      s.weights.push_back(weights[j]);
    }
    if (s.retained.empty()) {
      throw symbolic::TermEnumerationError(
          std::string("simplify_transfer: every ") + side_name(s.side) +
          " coefficient is negligible on the band — nothing to enumerate");
    }
  }

  // Each side gets a share of the headroom; within a side, coefficient k may
  // move the side value by eps_k * weight_k, so eps_k = share / (R * W_k)
  // keeps the total model error inside the share. Coefficients whose eps
  // caps at 0.3 (negligible band weight) consume almost none of the share;
  // a second pass hands their slack to the expensive coefficients, which is
  // where enumeration effort actually goes.
  for (SideState& s : sides) {
    const double share = 0.45 * headroom;
    const double count = static_cast<double>(s.retained.size());
    std::vector<double> epsilons(s.retained.size());
    double capped_cost = 0.0;
    double uncapped = 0.0;
    for (std::size_t j = 0; j < s.retained.size(); ++j) {
      epsilons[j] = std::clamp(share / (count * s.weights[j]), 1e-12, 0.3);
      if (epsilons[j] >= 0.3) {
        capped_cost += 0.3 * s.weights[j];
      } else {
        uncapped += 1.0;
      }
    }
    if (uncapped > 0.0 && capped_cost < share) {
      for (std::size_t j = 0; j < s.retained.size(); ++j) {
        if (epsilons[j] >= 0.3) continue;
        epsilons[j] = std::clamp((share - capped_cost) / (uncapped * s.weights[j]), 1e-12, 0.3);
      }
    }
    std::string unmet;
    for (std::size_t j = 0; j < s.retained.size(); ++j) {
      check_cancel(cancel);
      const int k = s.retained[j];
      symbolic::SdgOptions sdg;
      sdg.epsilon = epsilons[j];
      sdg.max_terms = options.max_terms_per_coefficient;
      const symbolic::SdgResult generated = symbolic::generate_transfer_terms(
          matrix, spec, s.side, k, s.reference->at(k).value, sdg);
      result.enumerated_terms += generated.generated();
      if (!generated.met) {
        unmet += (unmet.empty() ? "" : ", ") + std::string("s^") + std::to_string(k) + " (" +
                 generated.termination + ", err " + std::to_string(generated.relative_error) +
                 ")";
      }
      for (const symbolic::Term& term : generated.terms) {
        ModelTerm entry;
        entry.term = term;
        entry.value = term.value(matrix.symbols());
        entry.contrib.resize(points);
        for (std::size_t i = 0; i < points; ++i) {
          entry.contrib[i] =
              ScaledComplex(entry.value) * powers[static_cast<std::size_t>(k)][i];
        }
        s.terms.push_back(std::move(entry));
      }
    }
    // Unmet coefficients are not fatal by themselves — the certificate below
    // is the ground truth — but remember them for the error message.
    if (!unmet.empty() && s.terms.empty()) {
      throw symbolic::TermEnumerationError(
          std::string("simplify_transfer: ") + side_name(s.side) +
          " enumeration produced no terms; unmet coefficients: " + unmet);
    }
  }

  // ---- 5. Certificate against the ORIGINAL baseline + greedy term drops.
  for (SideState& s : sides) {
    s.kept.assign(s.terms.size(), 1);
    s.sum.assign(points, ScaledComplex());
    for (const ModelTerm& t : s.terms) {
      for (std::size_t i = 0; i < points; ++i) s.sum[i] += t.contrib[i];
    }
  }
  auto certificate_errors = [&](const std::vector<ScaledComplex>& num,
                                const std::vector<ScaledComplex>& den) {
    std::vector<double> errors(points, kInf);
    for (std::size_t i = 0; i < points; ++i) {
      if (den[i].is_zero() || baseline[i].is_zero()) return errors;
      const ScaledComplex model = num[i] / den[i];
      errors[i] = ((model - baseline[i]).abs() / baseline[i].abs()).to_double();
    }
    return errors;
  };
  auto fresh_sums = [&](const SideState& s) {
    std::vector<ScaledComplex> sum(points);
    for (std::size_t t = 0; t < s.terms.size(); ++t) {
      if (!s.kept[t]) continue;
      for (std::size_t i = 0; i < points; ++i) sum[i] += s.terms[t].contrib[i];
    }
    return sum;
  };
  auto max_error = [](const std::vector<double>& errors) {
    double worst = 0.0;
    for (const double e : errors) worst = std::max(worst, e);
    return worst;
  };

  std::vector<double> errors = certificate_errors(sides[0].sum, sides[1].sum);
  result.term_evals += points;
  if (max_error(errors) > options.error_budget) {
    throw symbolic::TermEnumerationError(
        "simplify_transfer: enumerated model misses the error budget (" +
        std::to_string(max_error(errors)) + " > " +
        std::to_string(options.error_budget) +
        " over the band) — the generators could not certify this band/budget; "
        "widen the budget, narrow the band, or raise the enumeration caps");
  }

  // Drop order: ascending initial band influence, ties broken by (side,
  // index) — fully deterministic.
  struct DropEntry {
    double influence;
    int side;
    std::size_t index;
  };
  std::vector<DropEntry> drop_order;
  for (int sd = 0; sd < 2; ++sd) {
    const SideState& s = sides[sd];
    for (std::size_t t = 0; t < s.terms.size(); ++t) {
      double influence = 0.0;
      for (std::size_t i = 0; i < points; ++i) {
        const ScaledDouble scale = s.sum[i].abs();
        if (scale.is_zero()) {
          influence = kInf;
          break;
        }
        influence = std::max(influence, (s.terms[t].contrib[i].abs() / scale).to_double());
      }
      drop_order.push_back({influence, sd, t});
    }
  }
  std::sort(drop_order.begin(), drop_order.end(), [](const DropEntry& a, const DropEntry& b) {
    if (a.influence != b.influence) return a.influence < b.influence;
    if (a.side != b.side) return a.side < b.side;
    return a.index < b.index;
  });

  std::vector<DropEntry> dropped;
  std::vector<ScaledComplex> trial_sum(points);
  for (const DropEntry& entry : drop_order) {
    if (entry.influence > 2.0 * options.error_budget) break;  // cannot possibly fit
    SideState& s = sides[entry.side];
    for (std::size_t i = 0; i < points; ++i) {
      trial_sum[i] = s.sum[i] - s.terms[entry.index].contrib[i];
    }
    const std::vector<double> trial_errors =
        entry.side == 0 ? certificate_errors(trial_sum, sides[1].sum)
                        : certificate_errors(sides[0].sum, trial_sum);
    result.term_evals += points;
    if (max_error(trial_errors) <= options.error_budget) {
      s.kept[entry.index] = 0;
      s.sum = trial_sum;
      dropped.push_back(entry);
    }
  }

  // The greedy walk updated the sums incrementally; recompute the final
  // certificate from scratch so the reported envelope is exactly what an
  // independent re-evaluation of the returned terms yields. If float drift
  // pushed a borderline commit over the line, restore drops until it fits
  // (terminates: with zero drops the fresh certificate passed above).
  while (true) {
    sides[0].sum = fresh_sums(sides[0]);
    sides[1].sum = fresh_sums(sides[1]);
    errors = certificate_errors(sides[0].sum, sides[1].sum);
    if (max_error(errors) <= options.error_budget || dropped.empty()) break;
    const DropEntry& restore = dropped.back();
    sides[restore.side].kept[restore.index] = 1;
    dropped.pop_back();
  }

  // ---- 6. Package the result.
  result.certificate.relative_error = errors;
  result.certificate.max_relative_error = max_error(errors);
  for (int sd = 0; sd < 2; ++sd) {
    SideState& s = sides[sd];
    auto& out = sd == 0 ? result.numerator_terms : result.denominator_terms;
    symbolic::Expression expression;
    for (std::size_t t = 0; t < s.terms.size(); ++t) {
      if (!s.kept[t]) continue;
      const symbolic::Term& term = s.terms[t].term;
      SimplifiedTerm simplified;
      simplified.coefficient = term.coefficient;
      for (const int id : term.symbols) {
        simplified.symbols.push_back(matrix.symbols().at(id).name);
      }
      simplified.s_power = term.s_power;
      simplified.value = s.terms[t].value;
      out.push_back(std::move(simplified));
      expression.add_term(term);
    }
    auto& text = sd == 0 ? result.numerator_expression : result.denominator_expression;
    text = expression.to_string(matrix.symbols(), 24);
  }
  result.kept_terms = result.numerator_terms.size() + result.denominator_terms.size();
  result.terms_dropped = result.enumerated_terms - result.kept_terms;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

SimplifyResult simplify_transfer(const netlist::Circuit& circuit,
                                 const mna::TransferSpec& spec,
                                 const SimplifyOptions& options) {
  const netlist::Circuit canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  return simplify_transfer(canonical, system, spec, options, nullptr);
}

}  // namespace symref::refgen
