// Reference-driven symbolic simplification on the reduced uA741: the cost
// of closing the paper's loop end to end (prune -> reference -> enumerate
// -> certify), and the two determinism/efficiency probes the service
// advertises:
//   * plan reuse: ranking trials replay ONE symbolic LU plan; the fresh
//     factorization count stays orders of magnitude below the eval count;
//   * replay ratio: the automatic (batched) replay path vs the scalar
//     oracle forced through sparse::testing::ScopedScalarReplay on the same
//     run (results are bit-identical, only the wall clock moves).
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json);
//        --threads <N> (default 8), --error-budget <E> (default 0.01).
#include <cstdio>

#include <map>
#include <optional>
#include <string>

#include "circuits/ua741.h"
#include "refgen/simplify.h"
#include "sparse/batched.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json", "threads", "error-budget"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  const int threads = args.get_int("threads", 8);
  const double budget = args.get_double("error-budget", 0.01);
  std::map<std::string, double> json_metrics;
  std::printf("=== Symbolic simplification: reduced uA741, %.3g budget, %d threads ===\n\n",
              budget, threads);

  symref::circuits::Ua741Options reduced;
  reduced.base_resistance = false;
  reduced.substrate_caps = false;
  const auto amp = symref::circuits::ua741(reduced);
  const auto spec = symref::mna::TransferSpec::voltage_gain("inp", "vo");

  symref::refgen::SimplifyOptions options;
  options.error_budget = budget;
  options.f_start_hz = 10.0;
  options.f_stop_hz = 1e3;
  options.band_points = 9;
  options.engine.threads = threads;

  symref::support::TextTable table;
  table.set_header({"replay", "enumerated", "kept", "max rel err", "evals", "fresh",
                    "seconds", "terms/s"});
  double seconds_by_path[2] = {};
  for (const bool batched : {false, true}) {
    std::optional<symref::sparse::testing::ScopedScalarReplay> scalar;
    if (!batched) scalar.emplace();
    const auto result = symref::refgen::simplify_transfer(amp, spec, options);
    seconds_by_path[batched ? 1 : 0] = result.seconds;
    const double terms_per_sec =
        result.seconds > 0.0 ? static_cast<double>(result.enumerated_terms) / result.seconds
                             : 0.0;
    table.add_row({batched ? "batched" : "scalar",
                   std::to_string(result.enumerated_terms),
                   std::to_string(result.kept_terms),
                   symref::support::format_sci(result.certificate.max_relative_error, 3),
                   std::to_string(result.term_evals),
                   std::to_string(result.ranking_fresh_factorizations),
                   symref::support::format_sci(result.seconds, 3),
                   symref::support::format_sci(terms_per_sec, 3)});
    const std::string prefix = batched ? "simplify_batched_" : "simplify_scalar_";
    json_metrics[prefix + "seconds"] = result.seconds;
    json_metrics[prefix + "terms_per_sec"] = terms_per_sec;
    if (batched) {
      json_metrics["simplify_enumerated_terms"] = static_cast<double>(result.enumerated_terms);
      json_metrics["simplify_kept_terms"] = static_cast<double>(result.kept_terms);
      json_metrics["simplify_max_rel_error"] = result.certificate.max_relative_error;
      json_metrics["simplify_term_evals"] = static_cast<double>(result.term_evals);
      // The plan-reuse probe: fresh factorizations beyond the baseline's own
      // (pivot-stability fallbacks only; 0 when every trial replayed).
      json_metrics["simplify_fresh_factor_count"] =
          static_cast<double>(result.ranking_fresh_factorizations);
    }
  }
  std::printf("%s\n", table.str().c_str());
  if (seconds_by_path[1] > 0.0) {
    const double ratio = seconds_by_path[0] / seconds_by_path[1];
    json_metrics["simplify_scalar_over_batched"] = ratio;
    std::printf("scalar/batched wall-clock ratio: %.2f (identical bits either way)\n", ratio);
  }
  if (!symref::support::merge_bench_json(json_path, json_metrics)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("metrics merged into %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
