// Simplification During Generation, end to end (the paper's motivation).
//
//   $ ./symbolic_simplification [--eps=0.01]
//
// 1. Generate the numerical reference for the OTA's determinant with the
//    adaptive engine.
// 2. Feed each coefficient's reference to the SDG generator, which emits
//    symbolic terms in decreasing magnitude until eq. (3) is met.
// 3. Print the dominant terms — the human-readable simplified expression.
#include <cstdio>

#include "api/service.h"
#include "circuits/ota.h"
#include "netlist/canonical.h"
#include "support/cli.h"
#include "symbolic/det.h"
#include "symbolic/sdg.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"eps"});
  const double eps = args.get_double("eps", 0.01);

  const auto ota = symref::circuits::ota_fig1();
  const auto canonical = symref::netlist::canonicalize(ota);
  const symref::symbolic::SymbolicNodalMatrix matrix(canonical);

  // Transimpedance denominator == the full determinant the SDG expands.
  const auto spec = symref::mna::TransferSpec::transimpedance("inp", "vo", "inn");
  const symref::api::Service service;
  const auto compiled = service.compile(ota, "ota");
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().to_string().c_str());
    return 1;
  }
  const auto ref_response = service.refgen(compiled.value(), {spec, {}});
  if (!ref_response.ok()) {
    std::fprintf(stderr, "refgen failed: %s\n", ref_response.status().to_string().c_str());
    return 1;
  }
  const auto& reference = ref_response.value().result;
  std::printf("reference: %s (%d matrix factorizations)\n\n",
              reference.termination.c_str(), reference.total_evaluations);

  const auto& den = reference.reference.denominator();
  for (int k = 0; k <= den.order_bound(); ++k) {
    if (!den.at(k).known() || den.at(k).value.is_zero()) continue;
    symref::symbolic::SdgOptions options;
    options.epsilon = eps;
    const auto result =
        symref::symbolic::generate_determinant_terms(matrix, k, den.at(k).value, options);

    std::printf("coefficient of s^%d  (reference %s):\n", k,
                den.at(k).value.to_string(5).c_str());
    std::printf("  %zu term(s) reach eps=%.0e (%s), residual error %.1e\n",
                result.generated(), eps, result.termination.c_str(),
                result.relative_error);
    const std::size_t show = std::min<std::size_t>(result.terms.size(), 6);
    for (std::size_t t = 0; t < show; ++t) {
      std::printf("    %-40s = %s\n",
                  result.terms[t].to_string(matrix.symbols()).c_str(),
                  result.terms[t].value(matrix.symbols()).to_string(4).c_str());
    }
    if (result.terms.size() > show) {
      std::printf("    ... %zu more\n", result.terms.size() - show);
    }
    std::printf("\n");
  }

  std::printf("Reading: with an accurate reference, eq. (3) stops the generation after\n");
  std::printf("the few dominant terms — the simplified symbolic formula a designer reads.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
