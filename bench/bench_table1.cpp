// Reproduces paper Table 1: transfer-function coefficients of the
// positive-feedback OTA's differential voltage gain.
//
//   (a) interpolation points on the raw unit circle (no scaling): almost all
//       coefficients drown in round-off noise;
//   (b) a frequency scale factor of 1e9: the coefficients up to the true
//       order rise above the error level (marked "*" like the paper's
//       shading); everything else remains garbage.
//
// The paper's polynomial-order estimate for this circuit is 9 (capacitor
// count), so both interpolations use 10 points.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <map>
#include <string>

#include "circuits/ota.h"
#include "interp/region.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "refgen/naive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

using symref::refgen::BaselineResult;

void print_table(const char* title, const BaselineResult& result) {
  std::printf("%s\n", title);
  std::printf("  f = %.4g, g = %.4g, %d points, %d evaluations\n", result.f_scale,
              result.g_scale, result.points, result.evaluations);
  std::printf("  valid region (numerator):   %s\n",
              result.numerator_region.to_string().c_str());
  std::printf("  valid region (denominator): %s\n",
              result.denominator_region.to_string().c_str());

  symref::support::TextTable table;
  table.set_header({"s^i", "Numerator (normalized)", "", "Denominator (normalized)", ""});
  for (std::size_t i = 0; i < result.denominator_normalized.size(); ++i) {
    const auto& num = result.numerator_normalized[i];
    const auto& den = result.denominator_normalized[i];
    table.add_row({
        "s^" + std::to_string(i),
        num.to_string(5),
        result.numerator_region.contains(static_cast<int>(i)) ? "*" : " ",
        den.to_string(5),
        result.denominator_region.contains(static_cast<int>(i)) ? "*" : " ",
    });
  }
  std::printf("%s\n", table.str().c_str());
}

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::printf("=== Table 1: OTA differential voltage gain coefficients ===\n");
  std::printf("(paper: Garcia-Vargas et al., DATE 1997; '*' = above error level,\n");
  std::printf(" the paper's shaded cells)\n\n");

  const auto ota = symref::netlist::canonicalize(symref::circuits::ota_fig1());
  const symref::mna::NodalSystem system(ota);
  const auto spec = symref::circuits::ota_fig1_gain_spec();

  symref::refgen::BaselineOptions options;
  options.points = symref::circuits::kOtaFig1OrderEstimate + 1;
  // Evaluate all points independently, as the paper did (no conjugate
  // shortcut), so the round-off behaviour mirrors Table 1a.
  options.conjugate_symmetry = false;

  const BaselineResult naive =
      symref::refgen::naive_interpolation(system, spec, options);
  print_table("--- (a) unit circle, no scaling ---", naive);

  const BaselineResult scaled = symref::refgen::fixed_scale_interpolation(
      system, spec, /*f=*/1e9, /*g=*/1.0, options);
  print_table("--- (b) frequency scale factor 1e9 ---", scaled);

  std::printf("Shape check vs the paper:\n");
  std::printf("  unscaled valid denominator coefficients : %d (paper: ~1-2 of 10)\n",
              naive.denominator_region.width());
  std::printf("  scaled   valid denominator coefficients : %d (paper: low-order block)\n",
              scaled.denominator_region.width());
  const std::map<std::string, double> json_metrics = {
      {"table1_unscaled_den_width", static_cast<double>(naive.denominator_region.width())},
      {"table1_scaled_den_width", static_cast<double>(scaled.denominator_region.width())},
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
