// Reference-driven symbolic simplification: the paper's loop, closed.
//
// The numerical reference exists so that symbolic simplification can be
// error-controlled (paper §1). This engine does exactly that, end to end,
// for one transfer spec over a user-supplied frequency band:
//
//   1. Baseline: sample the exact transfer H(jw) over the band through the
//      plan-replay evaluator (one symbolic LU plan, batched kernels).
//   2. Prune (SBG stage): rank every open/short candidate by the numeric
//      band error of its value-surrogate trial — each trial is a rebind +
//      pinned replay of the SAME plan (pattern-preserving value edits:
//      value -> 0 opens, value * 1e12 shorts) — then greedily accept
//      candidates while the cumulative band error stays inside the prune
//      share of the budget. The accepted actions are applied for real
//      (remove_element / short_element) and the exact prune error is
//      re-measured; actions are rolled back from the worst end if the
//      surrogate underestimated.
//   3. Reference: run the adaptive-scaling engine on the reduced circuit —
//      the per-coefficient references eq. (3) needs.
//   4. Enumerate (SDG stage): per retained coefficient, generate terms in
//      magnitude order until the eq. (3) stop rule meets a per-coefficient
//      epsilon derived from the coefficient's band weight and the budget
//      headroom left after pruning. Coefficients whose band weight is
//      negligible are dropped wholesale.
//   5. Certify + drop (SAG stage): evaluate the term model over the band
//      against the ORIGINAL baseline; greedily drop terms in ascending
//      band influence while the certified max relative error stays under
//      the budget. The final certificate is recomputed from scratch, so
//      the reported envelope is exactly what an independent re-evaluation
//      of the returned terms reproduces.
//
// Determinism: the baseline and trial replays are bit-identical at every
// thread count and on either replay path by the evaluator's oracle
// contract; every ranking trial is a pure function of its candidate; all
// accumulation runs serially in fixed order. Results are therefore
// bit-identical across threads = 1..N.
//
// Failure taxonomy: a spec the generators cannot represent (differential,
// > 64 nodes) throws symbolic::NonAdmissibleError (api: invalid_spec);
// a band/budget the enumeration cannot certify within its caps throws
// symbolic::TermEnumerationError (api: incomplete).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mna/nodal.h"
#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "numeric/scaled.h"
#include "refgen/adaptive.h"
#include "support/thread_pool.h"

namespace symref::refgen {

struct SimplifyOptions {
  /// Certified max relative error allowed over the band.
  double error_budget = 0.01;
  /// Log-spaced band grid, inclusive of both endpoints.
  double f_start_hz = 10.0;
  double f_stop_hz = 1e3;
  int band_points = 9;
  /// Per-coefficient SDG term cap (see SdgOptions::max_terms).
  std::size_t max_terms_per_coefficient = 200000;
  /// Reference generation on the reduced circuit; `engine.threads` and
  /// `engine.cancel` also drive the replay trials of the
  /// pruning/certification stages. As everywhere else, threads never
  /// influence results.
  AdaptiveOptions engine;
};

/// One factored product of the simplified transfer function.
struct SimplifiedTerm {
  /// Permutation/stamp sign (+-1, occasionally +-2 after merges).
  double coefficient = 1.0;
  /// Element names whose values multiply into the product.
  std::vector<std::string> symbols;
  /// Power of s (the term belongs to coefficient s^s_power).
  int s_power = 0;
  /// Signed design-point value of the whole product.
  numeric::ScaledDouble value;
};

/// A circuit reduction the pruning stage committed.
struct SimplifyPruneAction {
  std::string element;
  std::string op;  // "open" | "short"
  /// Cumulative surrogate band error after accepting this action.
  double error_after = 0.0;
};

/// Numeric proof: per-band-point relative error of the returned model
/// against the original circuit's replayed response.
struct ErrorCertificate {
  std::vector<double> frequencies_hz;
  std::vector<double> relative_error;
  double max_relative_error = 0.0;
  double error_budget = 0.0;
};

struct SimplifyResult {
  std::vector<SimplifiedTerm> numerator_terms;
  std::vector<SimplifiedTerm> denominator_terms;
  /// Readable factored forms (truncated to the leading terms).
  std::string numerator_expression;
  std::string denominator_expression;
  ErrorCertificate certificate;
  std::vector<SimplifyPruneAction> prune_actions;
  /// Reduced-circuit shape after pruning.
  int reduced_dim = 0;
  std::size_t reduced_elements = 0;
  std::size_t original_elements = 0;
  /// Term accounting: SDG generated `enumerated_terms`; the drop stage kept
  /// `kept_terms` of them (numerator + denominator).
  std::size_t enumerated_terms = 0;
  std::size_t kept_terms = 0;
  std::uint64_t terms_dropped = 0;
  /// Band-point evaluations spent ranking candidates and trialing drops —
  /// the daemon's simplify_term_evals counter.
  std::uint64_t term_evals = 0;
  /// Fresh (non-replay) factorizations the ranking evaluators ran beyond
  /// the baseline's own — the plan-reuse probe (0 when every trial replayed
  /// the one shared symbolic plan).
  std::uint64_t ranking_fresh_factorizations = 0;
  double seconds = 0.0;
};

/// Simplify `spec` on `canonical` (a canonicalized circuit) against the
/// replayed response of `system` (built over the same circuit).
///
/// `evaluator` (optional) is a caller-owned CofactorEvaluator over the same
/// system/spec that runs the baseline band sweep, so the caller can read
/// its factorization counters afterwards (api::Service passes a fresh one
/// per run). Non-reentrant like every evaluator user. When null, a
/// throwaway evaluator is built.
SimplifyResult simplify_transfer(const netlist::Circuit& canonical,
                                 const mna::NodalSystem& system,
                                 const mna::TransferSpec& spec,
                                 const SimplifyOptions& options = {},
                                 const mna::CofactorEvaluator* evaluator = nullptr);

/// Convenience wrapper: canonicalize + build the nodal system + run.
SimplifyResult simplify_transfer(const netlist::Circuit& circuit,
                                 const mna::TransferSpec& spec,
                                 const SimplifyOptions& options = {});

}  // namespace symref::refgen
