// Reproduces paper Fig. 2: Bode diagrams (magnitude and phase) of the
// µA741 open-loop voltage gain from (1) the interpolated coefficients and
// (2) an "electrical simulator" — here a direct complex-MNA AC analysis,
// which is what a SPICE AC sweep computes. The paper shows "perfect
// matching"; the columns below should agree to fractions of a millidecibel.
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
  std::printf("=== Fig. 2: uA741 Bode diagram, interpolated vs electrical simulator ===\n\n");

  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();
  const auto result = symref::refgen::generate_reference(ua, spec);
  std::printf("reference generation: %s, %zu iterations, %d evaluations\n\n",
              result.termination.c_str(), result.iterations.size(),
              result.total_evaluations);

  const auto comparison =
      symref::refgen::compare_bode(result.reference, ua, spec, 1.0, 100e6, 4);

  symref::support::TextTable table;
  table.set_header({"freq [Hz]", "interp |H| [dB]", "simulator |H| [dB]", "interp phase",
                    "simulator phase"});
  for (const auto& p : comparison.points) {
    table.add_row({
        symref::support::format_sci(p.frequency_hz, 3),
        symref::support::format_sci(p.interpolated_db, 6),
        symref::support::format_sci(p.simulated_db, 6),
        symref::support::format_sci(p.interpolated_phase_deg, 6),
        symref::support::format_sci(p.simulated_phase_deg, 6),
    });
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("max |magnitude error| : %.3e dB   (paper: 'perfect matching')\n",
              comparison.max_magnitude_error_db);
  std::printf("max |phase error|     : %.3e deg\n", comparison.max_phase_error_deg);
  std::printf("DC gain               : %.1f dB (classic 741: ~100 dB)\n",
              comparison.points.front().simulated_db);
  const std::map<std::string, double> json_metrics = {
      {"fig2_max_magnitude_error_db", comparison.max_magnitude_error_db},
      {"fig2_max_phase_error_deg", comparison.max_phase_error_deg},
      {"fig2_evaluations", static_cast<double>(result.total_evaluations)},
  };
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
