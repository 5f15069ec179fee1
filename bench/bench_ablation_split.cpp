// Ablation A2: simultaneous frequency+conductance scaling (eq. (13)) vs
// putting the whole tilt into the frequency factor alone.
//
// Paper §3.2: "simultaneous scaling of both frequency and conductance ...
// is used to avoid using too large (>~1e18) frequency or conductance scale
// factors", which would amplify the evaluation error of N and D at the
// interpolation points. The table reports the largest scale factor each
// policy needed and the worst sample-evaluation noise it caused.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "circuits/ua741.h"
#include "refgen/adaptive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

struct Row {
  const char* label;
  const char* key;
  symref::refgen::AdaptiveResult result;
};

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::map<std::string, double> json_metrics;
  std::printf("=== Ablation A2: eq. (13) simultaneous scaling vs single-factor ===\n\n");

  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();

  symref::refgen::AdaptiveOptions simultaneous;
  symref::refgen::AdaptiveOptions frequency_only;
  frequency_only.simultaneous_scaling = false;

  Row rows[] = {
      {"f and g split (eq. 13)", "split",
       symref::refgen::generate_reference(ua, spec, simultaneous)},
      {"f only", "fonly", symref::refgen::generate_reference(ua, spec, frequency_only)},
  };

  symref::support::TextTable table;
  table.set_header({"policy", "complete", "iterations", "max f", "max 1/g",
                    "worst eval noise (den, rel)"});
  for (const Row& row : rows) {
    double max_f = 0.0;
    double max_inv_g = 0.0;
    double worst_noise = 0.0;
    for (const auto& it : row.result.iterations) {
      // Only the productive iterations matter — the zero-tail probes at the
      // end escalate the scale factors on purpose and deliver nothing.
      if (it.den_new_coefficients == 0 && it.num_new_coefficients == 0) continue;
      max_f = std::max(max_f, it.f_scale);
      max_inv_g = std::max(max_inv_g, 1.0 / it.g_scale);
      if (!it.den_region.max_value.is_zero() && !it.den_evaluation_noise.is_zero()) {
        worst_noise = std::max(
            worst_noise,
            (it.den_evaluation_noise / it.den_region.max_value).to_double());
      }
    }
    table.add_row({
        row.label,
        row.result.complete ? "yes" : row.result.termination,
        std::to_string(row.result.iterations.size()),
        symref::support::format_sci(max_f, 3),
        symref::support::format_sci(max_inv_g, 3),
        symref::support::format_sci(worst_noise, 3),
    });
    const std::string prefix = std::string("ablation_") + row.key + "_";
    json_metrics[prefix + "iterations"] = static_cast<double>(row.result.iterations.size());
    json_metrics[prefix + "max_f"] = max_f;
    json_metrics[prefix + "worst_eval_noise"] = worst_noise;
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Reading: the single-factor policy needs far larger frequency factors\n");
  std::printf("(paper: beyond ~1e18), inflating the evaluation-error share of the floor.\n");
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
