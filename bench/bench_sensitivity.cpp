// Ablation A7: adjoint sensitivity ranking.
//
// Brute-force influence ranking re-simulates the circuit once per element;
// the adjoint method ranks ALL elements with two extra solves per
// frequency. This bench measures the adjoint ranking on the µA741.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "circuits/ua741.h"
#include "mna/sensitivity.h"
#include "netlist/canonical.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/timer.h"

namespace {

void print_ranking(const std::string& json_path) {
  const auto spec = symref::circuits::ua741_gain_spec();
  std::printf("=== Ablation A7: adjoint sensitivity ranking (uA741) ===\n\n");

  // Raw sensitivity ranking on the canonical twin.
  const auto canonical = symref::netlist::canonicalize(symref::circuits::ua741());
  symref::support::Timer rank_timer;
  const auto band = symref::mna::band_sensitivities(canonical, spec, 10.0, 1e6, 1);
  const double rank_ms = rank_timer.millis();

  int negligible = 0;
  for (const auto& s : band) {
    if (std::abs(s.normalized) < 5e-4) ++negligible;
  }
  std::printf("adjoint ranking: %zu elements in %.2f ms; %d below 5e-4 influence\n\n",
              band.size(), rank_ms, negligible);
  const std::map<std::string, double> json_metrics = {{"sensitivity_rank_ms", rank_ms}};
  if (!symref::support::merge_bench_json(json_path, json_metrics)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("metrics merged into %s\n\n", json_path.c_str());
  }
}

void BM_AdjointBandRanking(benchmark::State& state) {
  const auto canonical = symref::netlist::canonicalize(symref::circuits::ua741());
  const auto spec = symref::circuits::ua741_gain_spec();
  for (auto _ : state) {
    auto band = symref::mna::band_sensitivities(canonical, spec, 10.0, 1e6, 1);
    benchmark::DoNotOptimize(band.size());
  }
}
BENCHMARK(BM_AdjointBandRanking)->Unit(benchmark::kMillisecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json"});
  print_ranking(args.get("json", symref::support::kBenchJsonPath));
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
