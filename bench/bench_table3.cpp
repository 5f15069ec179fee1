// Reproduces paper Table 3: the remaining µA741 denominator coefficients
// from the third (and any later) adaptive interpolation, completing the set
// started in Table 2, plus the full assembled coefficient list.
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

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::printf("=== Table 3: uA741 denominator, remaining interpolations ===\n\n");

  const auto ua = symref::circuits::ua741();
  const auto result =
      symref::refgen::generate_reference(ua, symref::circuits::ua741_gain_spec());
  const int den_degree = result.denominator_degree;

  int shown = 0;
  for (const auto& it : result.iterations) {
    if (it.den_new_coefficients == 0) continue;
    if (shown++ < 2) continue;  // Table 2 covered the first two productive runs
    std::printf("--- interpolation %d (%s, f=%.6g, g=%.6g, %d points%s) ---\n", it.index,
                symref::refgen::purpose_name(it.purpose), it.f_scale, it.g_scale,
                it.points, it.deflated ? ", deflated" : "");
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

  std::printf("--- assembled denominator (every coefficient, denormalized) ---\n");
  symref::support::TextTable table;
  table.set_header({"s^i", "coefficient", "status", "found in iteration"});
  const auto& den = result.reference.denominator();
  for (int i = 0; i <= den.order_bound(); ++i) {
    const auto& c = den.at(i);
    const char* status =
        c.status == symref::refgen::CoefficientStatus::Interpolated
            ? "ok"
            : (c.status == symref::refgen::CoefficientStatus::ZeroTail ? "negligible"
                                                                       : "unknown");
    table.add_row({"s^" + std::to_string(i), c.value.to_string(6), status,
                   c.iteration >= 0 ? std::to_string(c.iteration) : "-"});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("paper shape: 49 coefficients spanning 1e-90 .. 1e-522 across 3 regions;\n");
  std::printf("this model:  %d coefficients, %.0f decades of total spread\n",
              den.order_bound() + 1,
              den.at(0).value.log10_abs() -
                  den.at(den.effective_order()).value.log10_abs());
  const std::map<std::string, double> json_metrics = {
      {"table3_den_coefficients", static_cast<double>(den.order_bound() + 1)},
      {"table3_decades_spread", den.at(0).value.log10_abs() -
                                    den.at(den.effective_order()).value.log10_abs()},
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
