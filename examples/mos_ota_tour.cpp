// CMOS OTA design tour: references, poles, sensitivities.
//
//   $ ./mos_ota_tour [--cl=2e-12] [--cc=1e-12] [--rz=0]
//
// Walks the two-stage Miller OTA through the full toolbox: adaptive
// reference generation, pole extraction (dominant pole, non-dominant pole,
// the Miller RHP zero and its cancellation by a nulling resistor), and the
// adjoint sensitivity ranking that tells a designer which elements actually
// set the response.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/service.h"
#include "circuits/mos_ota.h"
#include "mna/ac.h"
#include "mna/sensitivity.h"
#include "netlist/canonical.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"
#include "support/cli.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"cl", "cc", "rz"});
  symref::circuits::MosOtaOptions options;
  options.load_capacitance = args.get_double("cl", 2e-12);
  options.compensation_capacitance = args.get_double("cc", 1e-12);
  options.nulling_resistance = args.get_double("rz", 0.0);

  const auto ota = symref::circuits::two_stage_miller_ota(options);
  const auto spec = symref::circuits::two_stage_miller_ota_spec();
  std::printf("%s\n", ota.summary().c_str());

  const symref::api::Service service;
  const auto compiled = service.compile(ota, "mos-ota");
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().to_string().c_str());
    return 1;
  }
  const auto response = service.refgen(compiled.value(), {spec, {}});
  if (!response.ok()) {
    std::fprintf(stderr, "refgen failed: %s\n", response.status().to_string().c_str());
    return 1;
  }
  const auto& result = response.value().result;
  std::printf("reference: %s (%d factorizations, %.1f ms)\n\n",
              result.termination.c_str(), result.total_evaluations,
              result.seconds * 1e3);

  const symref::mna::AcSimulator sim(ota);
  std::printf("DC gain: %.1f dB\n", symref::mna::magnitude_db(sim.transfer(spec, 1.0)));

  const auto poles =
      symref::numeric::find_roots(result.reference.denominator().polynomial());
  std::printf("\npoles (Hz):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(poles.roots.size(), 5); ++i) {
    const auto p = poles.roots[i] / (2.0 * M_PI);
    std::printf("  p%zu  %12.4g %+12.4g j\n", i, p.real(), p.imag());
  }
  const auto zeros =
      symref::numeric::find_roots(result.reference.numerator().polynomial());
  std::printf("zeros (Hz):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(zeros.roots.size(), 3); ++i) {
    const auto z = zeros.roots[i] / (2.0 * M_PI);
    std::printf("  z%zu  %12.4g %+12.4g j   (%s half-plane)\n", i, z.real(), z.imag(),
                z.real() > 0 ? "right" : "left");
  }
  std::printf("(the Miller RHP zero sits near gm6/Cc; a nulling resistor --rz moves it)\n");

  // Adjoint sensitivity ranking at the unity-gain region.
  const auto canonical = symref::netlist::canonicalize(ota);
  auto ranking = symref::mna::band_sensitivities(canonical, spec, 1e3, 1e8, 1);
  std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
    return std::abs(a.normalized) > std::abs(b.normalized);
  });
  std::printf("\nmost influential elements across 1kHz..100MHz (|y dH/dy / H|):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(ranking.size(), 8); ++i) {
    std::printf("  %-12s %.3g\n", ranking[i].element.c_str(),
                std::abs(ranking[i].normalized));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
