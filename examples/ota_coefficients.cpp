// The paper's Table 1 scenario as an API walkthrough: why plain unit-circle
// interpolation fails on integrated circuits, and what scaling does.
//
//   $ ./ota_coefficients [--sigma=6]
//
// Runs three ways of computing the positive-feedback OTA's voltage-gain
// coefficients: no scaling, one fixed scaling, and the full adaptive engine,
// then cross-checks the adaptive result against the exact symbolic
// determinant expansion (tractable at this size).
#include <cstdio>

#include "api/service.h"
#include "circuits/ota.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "refgen/adaptive.h"
#include "refgen/naive.h"
#include "support/cli.h"
#include "symbolic/det.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"sigma"});

  const auto ota = symref::circuits::ota_fig1();
  const auto canonical = symref::netlist::canonicalize(ota);
  const symref::mna::NodalSystem system(canonical);
  const auto spec = symref::circuits::ota_fig1_gain_spec();

  std::printf("%s\n", ota.summary().c_str());
  std::printf("order estimate (capacitor count): %d; graph-aware bound: %d\n\n",
              symref::circuits::kOtaFig1OrderEstimate, system.order_bound());

  symref::refgen::BaselineOptions baseline;
  baseline.sigma = args.get_int("sigma", 6);
  baseline.points = symref::circuits::kOtaFig1OrderEstimate + 1;

  const auto naive = symref::refgen::naive_interpolation(system, spec, baseline);
  std::printf("unit circle, no scaling : %d of %d denominator coefficients valid\n",
              naive.denominator_region.width(), naive.points);

  const auto fixed =
      symref::refgen::fixed_scale_interpolation(system, spec, 1e9, 1.0, baseline);
  std::printf("frequency scale 1e9     : %d of %d valid (region %s)\n",
              fixed.denominator_region.width(), fixed.points,
              fixed.denominator_region.to_string().c_str());

  symref::refgen::AdaptiveOptions options;
  options.sigma = baseline.sigma;
  const symref::api::Service service;
  const auto compiled = service.compile(ota, "ota");
  const auto adaptive_response =
      compiled.ok() ? service.refgen(compiled.value(), {spec, options})
                    : symref::api::Result<symref::api::RefgenResponse>(compiled.status());
  if (!adaptive_response.ok()) {
    std::fprintf(stderr, "refgen failed: %s\n",
                 adaptive_response.status().to_string().c_str());
    return 1;
  }
  const auto& adaptive = adaptive_response.value().result;
  std::printf("adaptive scaling        : complete=%s in %zu iterations\n\n",
              adaptive.complete ? "yes" : "no", adaptive.iterations.size());

  // Exact cross-check: symbolic cofactor expansion at the design point.
  const symref::symbolic::SymbolicNodalMatrix matrix(canonical);
  const auto transfer = symref::symbolic::symbolic_transfer(matrix, spec);
  const auto exact_den = transfer.denominator.coefficients(matrix.symbols());

  std::printf("denominator: adaptive engine vs exact symbolic expansion\n");
  std::printf("  %-4s %-16s %-16s %s\n", "s^i", "adaptive", "exact", "rel diff");
  const auto& den = adaptive.reference.denominator();
  for (int i = 0; i <= den.order_bound(); ++i) {
    const auto exact = exact_den.coeff(static_cast<std::size_t>(i));
    std::printf("  %-4d %-16s %-16s %.2e\n", i, den.at(i).value.to_string(6).c_str(),
                exact.to_string(6).c_str(),
                symref::numeric::relative_difference(den.at(i).value, exact));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
