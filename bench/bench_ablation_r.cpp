// Ablation A1: the tuning factor r of eqs. (14)/(15).
//
// r controls how far each new scaling pushes the next valid region past the
// previous one: r < 0 increases region overlap (safer, more iterations),
// r > 0 reduces it (faster, risks gaps that need eq. (16) repairs). The
// paper introduces r but does not study it; this table does.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <map>
#include <string>

#include "circuits/ua741.h"
#include "refgen/adaptive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::map<std::string, double> json_metrics;
  std::printf("=== Ablation A1: tuning factor r in eq. (14)/(15), uA741 ===\n\n");

  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();

  symref::support::TextTable table;
  table.set_header({"r", "complete", "iterations", "gap repairs", "LU evals",
                    "worst overlap mismatch"});
  for (const double r : {-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0}) {
    symref::refgen::AdaptiveOptions options;
    options.tuning_r = r;
    const auto result = symref::refgen::generate_reference(ua, spec, options);
    int gap_repairs = 0;
    double worst_mismatch = 0.0;
    for (const auto& it : result.iterations) {
      if (it.purpose == symref::refgen::IterationPurpose::GapRepair) ++gap_repairs;
      worst_mismatch = std::max(worst_mismatch, it.max_overlap_mismatch);
    }
    table.add_row({
        symref::support::format_sci(r, 2),
        result.complete ? "yes" : result.termination,
        std::to_string(result.iterations.size()),
        std::to_string(gap_repairs),
        std::to_string(result.total_evaluations),
        symref::support::format_sci(worst_mismatch, 3),
    });
    if (r == 0.0) {
      json_metrics["ablation_r0_iterations"] = static_cast<double>(result.iterations.size());
      json_metrics["ablation_r0_evaluations"] = result.total_evaluations;
      json_metrics["ablation_r0_complete"] = result.complete ? 1.0 : 0.0;
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Reading: moderate r trades overlap for iteration count; the default r=0\n");
  std::printf("(adjacent regions touch) completes with no gap repairs on this circuit.\n");
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
