// Reference-driven symbolic simplification, end to end: the certificate a
// simplify run returns must be reproducible by an INDEPENDENT re-evaluation
// of the returned terms against an independently replayed baseline — the
// certificate is a proof, not a self-report.
#include "refgen/simplify.h"

#include <gtest/gtest.h>

#include <complex>
#include <map>
#include <optional>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "numeric/scaled.h"
#include "sparse/batched.h"
#include "symbolic/errors.h"

namespace symref::refgen {
namespace {

using numeric::ScaledComplex;
using numeric::ScaledDouble;

circuits::Ua741Options reduced_ua741_options() {
  // The monomial-sparse variant (no base resistances, no substrate caps):
  // dim 22, 109 elements — the largest model whose transfer function stays
  // sparsely representable in the monomial term basis at a 1% budget.
  circuits::Ua741Options options;
  options.base_resistance = false;
  options.substrate_caps = false;
  return options;
}

/// Sum the returned terms into per-power coefficients and evaluate the
/// model polynomial at s = jw in scaled arithmetic (term values span
/// hundreds of decades on the ua741; plain doubles would underflow).
ScaledComplex evaluate_terms(const std::vector<SimplifiedTerm>& terms, double omega) {
  std::map<int, ScaledDouble> coefficients;
  for (const SimplifiedTerm& term : terms) {
    auto [it, inserted] = coefficients.emplace(term.s_power, term.value);
    if (!inserted) it->second += term.value;
  }
  ScaledComplex sum;
  for (const auto& [power, value] : coefficients) {
    ScaledComplex s_power(1.0);
    for (int k = 0; k < power; ++k) s_power *= ScaledComplex(std::complex<double>(0.0, omega));
    sum += ScaledComplex(value) * s_power;
  }
  return sum;
}

/// The exact response from a fresh evaluator on the ORIGINAL circuit —
/// nothing from the simplify run is reused.
struct ExactResponse {
  ExactResponse(const netlist::Circuit& circuit, const mna::TransferSpec& spec)
      : canonical(netlist::canonicalize(circuit)), system(canonical), evaluator(system, spec) {}

  /// Relative error of the returned model at one frequency.
  double model_error(const SimplifyResult& result, double f_hz) const {
    const double omega = 2.0 * 3.14159265358979323846 * f_hz;
    const auto sample = evaluator.evaluate(std::complex<double>(0.0, omega), 1.0, 1.0);
    EXPECT_TRUE(sample.ok) << "baseline evaluation failed at " << f_hz << " Hz";
    const ScaledComplex exact = sample.numerator / sample.denominator;
    const ScaledComplex model = evaluate_terms(result.numerator_terms, omega) /
                                evaluate_terms(result.denominator_terms, omega);
    return numeric::ratio_abs((model - exact).abs(), exact.abs());
  }

  netlist::Circuit canonical;
  mna::NodalSystem system;
  mna::CofactorEvaluator evaluator;
};

/// Max relative error of the returned model over the certificate's band,
/// measured independently of the simplify run.
double independent_max_error(const netlist::Circuit& circuit, const mna::TransferSpec& spec,
                             const SimplifyResult& result) {
  const ExactResponse exact(circuit, spec);
  double worst = 0.0;
  for (std::size_t i = 0; i < result.certificate.frequencies_hz.size(); ++i) {
    const double error = exact.model_error(result, result.certificate.frequencies_hz[i]);
    worst = error > worst ? error : worst;
    // The certificate must be what an independent re-evaluation reproduces.
    EXPECT_NEAR(error, result.certificate.relative_error[i],
                1e-6 * (1.0 + result.certificate.relative_error[i]))
        << "certificate point " << i << " does not reproduce";
  }
  return worst;
}

bool has_action(const SimplifyResult& result, const std::string& element, const char* op) {
  for (const SimplifyPruneAction& action : result.prune_actions) {
    if (action.element == element && action.op == op) return true;
  }
  return false;
}

TEST(Simplify, RcLadderCertificateReproducesIndependently) {
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const mna::TransferSpec spec = circuits::rc_ladder_spec(4);
  SimplifyOptions options;
  options.error_budget = 0.01;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.band_points = 9;
  const SimplifyResult result = simplify_transfer(ladder, spec, options);
  EXPECT_LE(result.certificate.max_relative_error, options.error_budget);
  EXPECT_GT(result.enumerated_terms, 0u);
  EXPECT_LE(result.kept_terms, result.enumerated_terms);
  EXPECT_LE(independent_max_error(ladder, spec, result), options.error_budget);
}

TEST(Simplify, ErrorBoundHoldsAcrossTheBand) {
  // A divider dominated by two elements: the tiny parasitic branches are
  // pruned, and the model stays inside the budget between the
  // certificate's grid points too (with the same 1.5x interpolation slack).
  netlist::Circuit divider;
  divider.add_resistor("r1", "in", "out", 1e3);
  divider.add_resistor("r2", "out", "0", 1e3);
  divider.add_resistor("rpar", "in", "out", 1e9);    // negligible parallel path
  divider.add_capacitor("cpar", "out", "0", 1e-18);  // far-away pole
  divider.add_capacitor("cmain", "out", "0", 1e-9);  // the real pole
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("in", "out");
  SimplifyOptions options;
  options.error_budget = 0.02;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e7;
  const SimplifyResult result = simplify_transfer(divider, spec, options);
  EXPECT_TRUE(has_action(result, "rpar", "open"));
  EXPECT_TRUE(has_action(result, "cpar", "open"));
  EXPECT_LE(independent_max_error(divider, spec, result), options.error_budget);
  const ExactResponse exact(divider, spec);
  for (const double f : {1e2, 3e3, 1e5, 7e5, 1e7}) {
    EXPECT_LT(exact.model_error(result, f), options.error_budget * 1.5) << f << " Hz";
  }
}

TEST(Simplify, ShortActionMergesSeriesResistance) {
  // 10 ohm in series with a 2k path: shorting it is the cheapest prune.
  // (Far smaller series resistances are out of the surrogate's reach: the
  // 1e12-times-stiffer trial value rounds away the rest of its rows.)
  netlist::Circuit circuit;
  circuit.add_resistor("r1", "in", "x", 1e3);
  circuit.add_resistor("rpar", "x", "out", 10.0);
  circuit.add_resistor("r2", "out", "0", 1e3);
  circuit.add_capacitor("c1", "out", "0", 1e-9);
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("in", "out");
  SimplifyOptions options;
  options.error_budget = 0.05;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e6;
  const SimplifyResult result = simplify_transfer(circuit, spec, options);
  EXPECT_TRUE(has_action(result, "rpar", "short"));
  EXPECT_EQ(result.reduced_dim, 2);  // x merged into out
  EXPECT_LE(independent_max_error(circuit, spec, result), options.error_budget);
}

TEST(Simplify, PortNodesNeverMergedAway) {
  // A resistor straight across in-out is never shorted, even where that
  // would "simplify" the circuit: the merge would erase the question.
  netlist::Circuit circuit;
  circuit.add_resistor("r1", "in", "out", 10.0);
  circuit.add_resistor("r2", "out", "0", 1e3);
  circuit.add_capacitor("c1", "out", "0", 1e-12);
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("in", "out");
  SimplifyOptions options;
  options.error_budget = 0.05;
  options.f_start_hz = 1e2;
  options.f_stop_hz = 1e4;
  const SimplifyResult result = simplify_transfer(circuit, spec, options);
  EXPECT_FALSE(has_action(result, "r1", "short"));
  EXPECT_EQ(result.reduced_dim, 2);  // in and out both survive
  EXPECT_LE(independent_max_error(circuit, spec, result), options.error_budget);
}

TEST(Simplify, Ua741OnePercentBudgetCertifies) {
  // The acceptance scenario: a 1% budget over the 10 Hz..1 kHz open-loop
  // band returns a strictly smaller term set whose re-evaluated response
  // stays within budget — certified here by an independent re-evaluation.
  const netlist::Circuit amp = circuits::ua741(reduced_ua741_options());
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("inp", "vo");
  SimplifyOptions options;
  options.error_budget = 0.01;
  options.f_start_hz = 10.0;
  options.f_stop_hz = 1e3;
  options.band_points = 9;
  options.engine.threads = 8;
  const SimplifyResult result = simplify_transfer(amp, spec, options);

  EXPECT_LE(result.certificate.max_relative_error, options.error_budget);
  EXPECT_LT(result.kept_terms, result.enumerated_terms);  // strictly smaller
  EXPECT_GT(result.terms_dropped, 0u);
  EXPECT_FALSE(result.prune_actions.empty());
  EXPECT_LT(result.reduced_elements, result.original_elements);
  // Plan-reuse probe: ranking runs through pinned replay of the one shared
  // symbolic plan; only the rare pivot-stability fallback factors fresh.
  EXPECT_GT(result.term_evals, 0u);
  EXPECT_LT(result.ranking_fresh_factorizations * 50, result.term_evals);

  EXPECT_LE(independent_max_error(amp, spec, result), options.error_budget);
}

TEST(Simplify, Ua741BitIdenticalAcrossThreadsAndReplayPaths) {
  const netlist::Circuit amp = circuits::ua741(reduced_ua741_options());
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("inp", "vo");
  SimplifyOptions base;
  base.error_budget = 0.05;  // loose budget keeps the 4-way matrix fast
  base.f_start_hz = 10.0;
  base.f_stop_hz = 1e3;
  base.band_points = 5;

  std::vector<SimplifyResult> results;
  for (const int threads : {1, 8}) {
    for (const bool force_scalar : {true, false}) {
      SimplifyOptions options = base;
      options.engine.threads = threads;
      std::optional<sparse::testing::ScopedScalarReplay> scalar;
      if (force_scalar) scalar.emplace();
      results.push_back(simplify_transfer(amp, spec, options));
    }
  }
  const SimplifyResult& first = results.front();
  EXPECT_LE(first.certificate.max_relative_error, base.error_budget);
  for (std::size_t r = 1; r < results.size(); ++r) {
    const SimplifyResult& other = results[r];
    EXPECT_EQ(first.numerator_expression, other.numerator_expression) << r;
    EXPECT_EQ(first.denominator_expression, other.denominator_expression) << r;
    EXPECT_EQ(first.enumerated_terms, other.enumerated_terms) << r;
    EXPECT_EQ(first.kept_terms, other.kept_terms) << r;
    ASSERT_EQ(first.prune_actions.size(), other.prune_actions.size()) << r;
    for (std::size_t i = 0; i < first.prune_actions.size(); ++i) {
      EXPECT_EQ(first.prune_actions[i].element, other.prune_actions[i].element);
      EXPECT_EQ(first.prune_actions[i].op, other.prune_actions[i].op);
    }
    ASSERT_EQ(first.certificate.relative_error.size(), other.certificate.relative_error.size());
    for (std::size_t i = 0; i < first.certificate.relative_error.size(); ++i) {
      // Bitwise, not approximately: the oracle contract promises identical
      // results at every thread count and on either replay path.
      EXPECT_EQ(first.certificate.relative_error[i], other.certificate.relative_error[i])
          << "config " << r << " point " << i;
    }
    ASSERT_EQ(first.numerator_terms.size(), other.numerator_terms.size()) << r;
    ASSERT_EQ(first.denominator_terms.size(), other.denominator_terms.size()) << r;
    for (std::size_t i = 0; i < first.numerator_terms.size(); ++i) {
      EXPECT_EQ(first.numerator_terms[i].value.mantissa(),
                other.numerator_terms[i].value.mantissa());
      EXPECT_EQ(first.numerator_terms[i].value.exponent2(),
                other.numerator_terms[i].value.exponent2());
    }
  }
}

TEST(Simplify, DifferentialSpecThrowsNonAdmissible) {
  const netlist::Circuit ota = circuits::ota_fig1();
  EXPECT_THROW(simplify_transfer(ota, circuits::ota_fig1_gain_spec()),
               symbolic::NonAdmissibleError);
}

TEST(Simplify, UncertifiableCapsThrowTermEnumeration) {
  // One term per coefficient cannot reach a 1e-6 budget on a 4-stage
  // ladder: the enumeration must refuse with the typed error instead of
  // returning an uncertified result.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  SimplifyOptions options;
  options.error_budget = 1e-6;
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.band_points = 5;
  options.max_terms_per_coefficient = 1;
  EXPECT_THROW(simplify_transfer(ladder, circuits::rc_ladder_spec(4), options),
               symbolic::TermEnumerationError);
}

}  // namespace
}  // namespace symref::refgen
