// Reproduces paper Table 2: denominator coefficients of the µA741's voltage
// gain across the adaptive algorithm's first interpolations.
//
//   (a) first interpolation — scale factors from the element-value means;
//       a contiguous low-order block of coefficients is valid;
//   (b) second interpolation — scale factors from eq. (13)/(14); the valid
//       region shifts upward with minimal overlap.
//
// Absolute values differ from the paper (its device parameters are not
// published); the structure — region locations, widths, normalized
// magnitudes around 1e+100, denormalized values spanning hundreds of
// decades — is the reproduction target.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <map>
#include <string>

#include "circuits/ua741.h"
#include "refgen/adaptive.h"
#include "refgen/naive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"

namespace {

using symref::refgen::AdaptiveResult;
using symref::refgen::IterationRecord;

void print_iteration(const char* title, const IterationRecord& it, int den_degree) {
  std::printf("%s\n", title);
  std::printf("  purpose=%s  f=%.6g  g=%.6g  q=%.6g  points=%d%s\n",
              symref::refgen::purpose_name(it.purpose), it.f_scale, it.g_scale, it.q,
              it.points, it.deflated ? "  (deflated, eq. 17)" : "");
  std::printf("  valid region: %s (shift %d)\n", it.den_region.to_string().c_str(),
              it.den_shift);
  symref::support::TextTable table;
  table.set_header({"s^i", "Normalized", "Denormalized", ""});
  for (std::size_t i = 0; i < it.den_normalized.size(); ++i) {
    const int index = static_cast<int>(i) + it.den_shift;
    const auto normalized = it.den_normalized[i].real();
    const auto denormalized = symref::refgen::denormalize_coefficient(
        normalized, index, den_degree, it.f_scale, it.g_scale);
    table.add_row({
        "s^" + std::to_string(index),
        normalized.to_string(6),
        denormalized.to_string(6),
        it.den_region.contains(static_cast<int>(i)) ? "*" : " ",
    });
  }
  std::printf("%s\n", table.str().c_str());
}

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::printf("=== Table 2: uA741 voltage-gain denominator, adaptive iterations ===\n");
  std::printf("('*' = inside the valid region / the paper's shaded cells)\n\n");

  const auto ua = symref::circuits::ua741();
  const AdaptiveResult result =
      symref::refgen::generate_reference(ua, symref::circuits::ua741_gain_spec());
  std::printf("engine: %s, %zu iterations, %d LU evaluations, %.1f ms\n\n",
              result.termination.c_str(), result.iterations.size(),
              result.total_evaluations, result.seconds * 1e3);

  const int den_degree = result.denominator_degree;

  int shown = 0;
  for (const auto& it : result.iterations) {
    if (it.den_new_coefficients == 0) continue;
    const std::string title =
        "--- (" + std::string(1, static_cast<char>('a' + shown)) + ") interpolation " +
        std::to_string(it.index) + " ---";
    print_iteration(title.c_str(), it, den_degree);
    if (++shown == 2) break;  // Table 2 shows the first two
  }

  std::printf("paper shape: first region p0..p12 of 49, second p13..p30;\n");
  std::printf("this model:  see regions above (order bound %d)\n",
              result.reference.denominator().order_bound());
  const std::map<std::string, double> json_metrics = {
      {"table2_iterations", static_cast<double>(result.iterations.size())},
      {"table2_evaluations", static_cast<double>(result.total_evaluations)},
      {"table2_ms", result.seconds * 1e3},
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
