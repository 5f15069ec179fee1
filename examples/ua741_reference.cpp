// The paper's flagship example: numerical reference generation for the
// µA741 operational amplifier's open-loop voltage gain.
//
//   $ ./ua741_reference [--sigma=6] [--no-deflation] [--trace] [--live]
//
// Prints the adaptive schedule (scale factors, valid regions, point counts),
// the assembled coefficient set spanning hundreds of decades, and the
// Fig. 2-style validation against a direct AC analysis. Runs through the
// api::Service facade; --live streams the schedule via the facade's
// iteration-progress observer while the engine works instead of after it.
// --no-deflation is an engine-only ablation switch that no request takes,
// so that run calls refgen::generate_reference directly.
#include <cstdio>

#include "api/service.h"
#include "circuits/ua741.h"
#include "refgen/adaptive.h"
#include "refgen/validate.h"
#include "support/cli.h"
#include "support/log.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"sigma"}, {"no-deflation", "trace", "live"});
  if (args.has("trace")) {
    symref::support::set_log_level(symref::support::LogLevel::Debug);
  }

  const symref::api::Service service;
  const auto compiled = service.compile(symref::circuits::ua741(), "ua741");
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().to_string().c_str());
    return 1;
  }
  const symref::api::CircuitHandle& handle = compiled.value();
  const auto spec = symref::circuits::ua741_gain_spec();
  std::printf("%s\n\n", handle.summary().c_str());

  symref::refgen::AdaptiveOptions options;
  options.sigma = args.get_int("sigma", 6);
  options.use_deflation = !args.has("no-deflation");
  if (args.has("live")) {
    options.on_iteration = [](const symref::refgen::IterationRecord& it) {
      std::printf("  live it%-2d %-10s f=%-11.4g g=%-11.4g points=%-3d (+%d den, +%d num)\n",
                  it.index, symref::refgen::purpose_name(it.purpose), it.f_scale, it.g_scale,
                  it.points, it.den_new_coefficients, it.num_new_coefficients);
    };
  }

  symref::refgen::AdaptiveResult result;
  if (options.use_deflation) {
    auto response = service.refgen(handle, {spec, options});
    if (!response.ok()) {
      std::fprintf(stderr, "refgen failed: %s\n", response.status().to_string().c_str());
      return 1;
    }
    result = response.take().result;
  } else {
    result = symref::refgen::generate_reference(handle.circuit(), spec, options);
  }
  std::printf("termination: %s, %.1f ms, %d matrix factorizations\n\n",
              result.termination.c_str(), result.seconds * 1e3,
              result.total_evaluations);

  std::printf("schedule:\n");
  for (const auto& it : result.iterations) {
    std::printf("  it%-2d %-10s f=%-11.4g g=%-11.4g points=%-3d den %s  (+%d den, +%d num)\n",
                it.index, symref::refgen::purpose_name(it.purpose), it.f_scale, it.g_scale,
                it.points, it.den_region.to_string().c_str(), it.den_new_coefficients,
                it.num_new_coefficients);
  }

  const auto& den = result.reference.denominator();
  std::printf("\ndenominator: %d coefficients, s^0 = %s ... s^%d = %s\n",
              den.order_bound() + 1, den.at(0).value.to_string(6).c_str(),
              den.effective_order(),
              den.at(den.effective_order()).value.to_string(6).c_str());
  std::printf("total spread: %.0f decades (the paper's spans 1e-90 .. 1e-522)\n",
              den.at(0).value.log10_abs() -
                  den.at(den.effective_order()).value.log10_abs());

  const auto comparison =
      symref::refgen::compare_bode(result.reference, handle.circuit(), spec, 1.0, 100e6, 3);
  std::printf("\nFig. 2 check: max %.2e dB / %.2e deg deviation from the AC simulator\n",
              comparison.max_magnitude_error_db, comparison.max_phase_error_deg);
  double crossover = comparison.points.back().frequency_hz;
  for (const auto& p : comparison.points) {
    if (p.simulated_db < 0.0) {
      crossover = p.frequency_hz;
      break;
    }
  }
  std::printf("DC gain %.1f dB, unity-gain crossover near %.2g Hz (classic 741: ~1 MHz)\n",
              comparison.points.front().simulated_db, crossover);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
