// Ablation A5: SDG term generation under eq. (3) error control.
//
// This is the paper's *motivation*: SDG generates symbolic terms in
// decreasing magnitude until the accumulated sum reproduces the numerical
// reference within eps_k. The table shows, for the OTA's determinant
// coefficients, how many terms each eps needs — the whole point of having
// an accurate reference is that this stopping rule becomes trustworthy.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <map>
#include <string>

#include "circuits/ota.h"
#include "netlist/canonical.h"
#include "refgen/adaptive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"
#include "symbolic/det.h"
#include "symbolic/sdg.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::map<std::string, double> json_metrics;
  std::printf("=== Ablation A5: SDG term counts vs eq. (3) epsilon (OTA) ===\n\n");

  const auto ota = symref::circuits::ota_fig1();
  const auto canonical = symref::netlist::canonicalize(ota);
  const symref::symbolic::SymbolicNodalMatrix matrix(canonical);

  // Numerical references from the paper's engine (transimpedance: the
  // denominator IS the determinant the SDG expands).
  const auto spec = symref::mna::TransferSpec::transimpedance("inp", "vo", "inn");
  const auto reference = symref::refgen::generate_reference(ota, spec);
  std::printf("reference: %s\n\n", reference.termination.c_str());

  // Full expansions for ground truth term counts.
  const auto det = symref::symbolic::symbolic_determinant(matrix);
  std::size_t total_terms[8] = {};
  for (const auto& term : det.terms()) {
    if (term.s_power < 8) ++total_terms[term.s_power];
  }

  symref::support::TextTable table;
  table.set_header({"coefficient", "total terms", "eps=1e-1", "eps=1e-3", "eps=1e-6",
                    "exact sum"});
  const auto& den = reference.reference.denominator();
  for (int k = 0; k <= den.order_bound(); ++k) {
    if (!den.at(k).known() || den.at(k).value.is_zero()) continue;
    std::vector<std::string> row = {"s^" + std::to_string(k),
                                    std::to_string(total_terms[k])};
    for (const double eps : {1e-1, 1e-3, 1e-6}) {
      symref::symbolic::SdgOptions options;
      options.epsilon = eps;
      const auto result =
          symref::symbolic::generate_determinant_terms(matrix, k, den.at(k).value, options);
      row.push_back(std::to_string(result.generated()) +
                    (result.met ? "" : " (!" + result.termination + ")"));
      if (eps == 1e-3) {
        json_metrics["sdg_terms_eps1e3_s" + std::to_string(k)] =
            static_cast<double>(result.generated());
      }
    }
    symref::symbolic::SdgOptions exact;
    exact.epsilon = 0.0;
    const auto full =
        symref::symbolic::generate_determinant_terms(matrix, k, den.at(k).value, exact);
    row.push_back(symref::support::format_sci(
        symref::numeric::relative_difference(full.accumulated, den.at(k).value), 2));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Reading: a handful of dominant terms reproduces each coefficient to 10%%;\n");
  std::printf("the exhausted stream matches the interpolated reference (last column ~ the\n");
  std::printf("engine's own accuracy), closing the SDG <-> reference loop end to end.\n");
  json_metrics["sdg_reference_complete"] = reference.complete ? 1.0 : 0.0;
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
