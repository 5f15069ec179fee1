// Ablation A6: demanded significant digits (sigma) vs. work and accuracy.
//
// sigma sets the validity window per interpolation to (13 - sigma) decades
// (eq. (12)): higher sigma means more trustworthy coefficients but narrower
// windows, hence more interpolations. The paper fixes sigma = 6; this table
// shows the trade-off on the µA741 and validates each run's accuracy via
// the Fig. 2 Bode comparison.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <map>
#include <string>

#include "circuits/ua741.h"
#include "refgen/adaptive.h"
#include "refgen/validate.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::map<std::string, double> json_metrics;
  std::printf("=== Ablation A6: significant digits sigma vs work/accuracy (uA741) ===\n\n");

  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();

  symref::support::TextTable table;
  table.set_header({"sigma", "window [decades]", "complete", "iterations", "LU evals",
                    "max Bode error [dB]"});
  for (const int sigma : {3, 4, 6, 8, 10}) {
    symref::refgen::AdaptiveOptions options;
    options.sigma = sigma;
    const auto result = symref::refgen::generate_reference(ua, spec, options);
    double bode_error = -1.0;
    if (result.complete) {
      bode_error = symref::refgen::compare_bode(result.reference, ua, spec, 1.0, 100e6, 3)
                       .max_magnitude_error_db;
    }
    table.add_row({
        std::to_string(sigma),
        std::to_string(13 - sigma),
        result.complete ? "yes" : result.termination,
        std::to_string(result.iterations.size()),
        std::to_string(result.total_evaluations),
        result.complete ? symref::support::format_sci(bode_error, 3) : "-",
    });
    if (sigma == 6) {
      json_metrics["sigma6_iterations"] = static_cast<double>(result.iterations.size());
      json_metrics["sigma6_evaluations"] = result.total_evaluations;
      json_metrics["sigma6_bode_error_db"] = bode_error;
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Reading: the paper's sigma = 6 balances window width (7 decades) against\n");
  std::printf("coefficient quality; sigma >= 10 narrows windows to 3 decades and the\n");
  std::printf("iteration count grows accordingly.\n");
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
