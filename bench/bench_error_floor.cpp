// Quantifies the paper's §2.2 error model: the recovered-coefficient noise
// floor of unit-circle interpolation sits at ~1e-13 * max_i |p_i| in
// 16-digit arithmetic.
//
// Synthetic polynomials with a controlled coefficient spread are sampled
// exactly and recovered through the IDFT; the table reports the worst
// recovery error of the *zero* coefficients (pure noise) relative to the
// largest coefficient — the quantity the paper pins at ~1e-13.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <cstdio>

#include <cmath>
#include <complex>
#include <map>
#include <string>
#include <vector>

#include "numeric/dft.h"
#include "numeric/polynomial.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/random.h"
#include "support/table.h"

namespace {

int run(int argc, char** argv) {
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  std::map<std::string, double> json_metrics;
  std::printf("=== §2.2: round-off floor of unit-circle interpolation ===\n\n");

  symref::support::Rng rng(7);
  symref::support::TextTable table;
  table.set_header({"spread [decades]", "degree", "K", "noise floor / max", "paper model"});

  for (const double spread : {0.0, 3.0, 6.0, 9.0, 12.0}) {
    const int degree = 9;
    const int K = 16;  // deliberate overestimate: indices 10..15 are zeros
    std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1);
    double max_coeff = 0.0;
    for (int i = 0; i <= degree; ++i) {
      // log-linear decay over `spread` decades, alternating sign.
      const double magnitude = std::pow(10.0, -spread * i / degree);
      coeffs[static_cast<std::size_t>(i)] = (i % 2 ? -1.0 : 1.0) * magnitude;
      max_coeff = std::max(max_coeff, magnitude);
    }
    const symref::numeric::Polynomial<double> poly{std::move(coeffs)};

    const auto points = symref::numeric::unit_circle_points(K);
    std::vector<std::complex<double>> samples(points.size());
    for (std::size_t k = 0; k < points.size(); ++k) samples[k] = poly.eval(points[k]);
    const auto recovered = symref::numeric::coefficients_from_unit_circle_samples(samples);

    double worst_noise = 0.0;
    for (int i = degree + 1; i < K; ++i) {
      worst_noise = std::max(worst_noise, std::abs(recovered[static_cast<std::size_t>(i)]));
    }
    table.add_row({
        symref::support::format_sci(spread, 2),
        std::to_string(degree),
        std::to_string(K),
        symref::support::format_sci(worst_noise / max_coeff, 3),
        "~1e-13 .. 1e-16",
    });
    if (spread == 12.0) json_metrics["error_floor_spread12_rel"] = worst_noise / max_coeff;
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Consequence (paper): any true coefficient more than ~13 decades below the\n");
  std::printf("largest one is unrecoverable at one scaling; with sigma=6 demanded digits\n");
  std::printf("the usable window per interpolation is ~7 decades.\n");
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
