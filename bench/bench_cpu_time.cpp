// Reproduces the paper's §3.3 CPU-time experiment: per-iteration cost of the
// adaptive algorithm on the µA741, with and without the eq. (17) deflation.
//
// Paper (SPARC Station 10): 3.9 s per iteration without the reduction;
// 3.9 s / 2.3 s / 0.9 s for the three iterations with it. Absolute times are
// hardware-bound; the reproduction target is the *decline* driven by the
// shrinking interpolation point count (the work per iteration is
// points x LU cost). google-benchmark timings of the full run follow.
//
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json);
// --threads N additionally sweeps the adaptive run and the Bode sweep at
// 1, 2, 4, ... up to N lanes, checks the results are bit-identical to the
// serial path, and emits one metrics row per thread count.
#include <benchmark/benchmark.h>

#include <complex>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "circuits/ua741.h"
#include "mna/ac.h"
#include "refgen/adaptive.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using symref::support::thread_ladder;

/// Headline numbers merged into the --json file for cross-PR tracking.
std::map<std::string, double> json_metrics;

// Cached frequency sweep (one factorization plan for the whole Bode run)
// against the per-point path (fresh simulator, fresh factorization each
// point) — the repeated-evaluation workload the symbolic/numeric LU split
// and pattern-cached assembly target. With --threads > 1 the same sweep is
// repeated over the thread ladder; every run must be bit-identical to the
// one-lane sweep (independent plan replays + ordered reduction).
void measure_bode_sweep(int max_threads) {
  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();
  const double f_start = 1.0;
  const double f_stop = 1e8;
  const int per_decade = 20;

  const symref::mna::AcSimulator cached_sim(ua);
  symref::support::Timer cached_timer;
  const auto sweep = cached_sim.bode(spec, f_start, f_stop, per_decade);
  const double cached_ms = cached_timer.millis();

  symref::support::Timer per_point_timer;
  for (const auto& point : sweep) {
    const symref::mna::AcSimulator fresh(ua);
    const auto value = fresh.transfer(spec, point.frequency_hz);
    benchmark::DoNotOptimize(value);
  }
  const double per_point_ms = per_point_timer.millis();

  std::printf("=== µA741 Bode sweep, %zu points ===\n\n", sweep.size());
  std::printf("cached sweep (plan reuse):     %8.2f ms\n", cached_ms);
  std::printf("per-point factorization:       %8.2f ms  (%.1fx slower)\n\n", per_point_ms,
              per_point_ms / cached_ms);
  json_metrics["ua741_bode_points"] = static_cast<double>(sweep.size());
  json_metrics["ua741_bode_cached_ms"] = cached_ms;
  json_metrics["ua741_bode_per_point_ms"] = per_point_ms;

  if (max_threads <= 1) return;
  std::printf("--- parallel sweep, %zu points ---\n", sweep.size());
  bool all_identical = true;
  for (const int threads : thread_ladder(max_threads)) {
    const symref::mna::AcSimulator sim(ua);
    symref::support::Timer timer;
    const auto parallel = sim.bode(spec, f_start, f_stop, per_decade, threads);
    const double ms = timer.millis();
    bool identical = parallel.size() == sweep.size();
    for (std::size_t i = 0; identical && i < sweep.size(); ++i) {
      identical = parallel[i].value == sweep[i].value &&
                  parallel[i].phase_deg == sweep[i].phase_deg;
    }
    all_identical = all_identical && identical;
    std::printf("threads=%2d: %8.2f ms  (%.2fx vs 1 thread)  bit-identical: %s\n", threads,
                ms, cached_ms / ms, identical ? "yes" : "NO");
    json_metrics["ua741_bode_cached_ms_t" + std::to_string(threads)] = ms;
  }
  json_metrics["ua741_bode_parallel_bit_identical"] = all_identical ? 1.0 : 0.0;
  std::printf("\n");
}

void print_iteration_costs(int max_threads) {
  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();

  symref::refgen::AdaptiveOptions with_deflation;
  symref::refgen::AdaptiveOptions without_deflation;
  without_deflation.use_deflation = false;

  const auto deflated = symref::refgen::generate_reference(ua, spec, with_deflation);
  const auto plain = symref::refgen::generate_reference(ua, spec, without_deflation);

  std::printf("=== §3.3: per-iteration cost, eq. (17) deflation on/off ===\n\n");
  symref::support::TextTable table;
  table.set_header({"iteration", "points (defl.)", "time [ms] (defl.)", "points (plain)",
                    "time [ms] (plain)"});
  const std::size_t rows = std::max(deflated.iterations.size(), plain.iterations.size());
  for (std::size_t i = 0; i < rows; ++i) {
    auto cell_points = [&](const symref::refgen::AdaptiveResult& r) {
      return i < r.iterations.size() ? std::to_string(r.iterations[i].points)
                                     : std::string("-");
    };
    auto cell_time = [&](const symref::refgen::AdaptiveResult& r) {
      return i < r.iterations.size()
                 ? symref::support::format_sci(r.iterations[i].seconds * 1e3, 3)
                 : std::string("-");
    };
    table.add_row({std::to_string(i), cell_points(deflated), cell_time(deflated),
                   cell_points(plain), cell_time(plain)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("totals: deflated %d evaluations in %.1f ms; plain %d evaluations in %.1f ms\n",
              deflated.total_evaluations, deflated.seconds * 1e3, plain.total_evaluations,
              plain.seconds * 1e3);
  std::printf("paper:  3.9/2.3/0.9 s per productive iteration (deflated) vs 3.9 s flat\n\n");
  json_metrics["ua741_refgen_deflated_ms"] = deflated.seconds * 1e3;
  json_metrics["ua741_refgen_deflated_evaluations"] = deflated.total_evaluations;
  json_metrics["ua741_refgen_plain_ms"] = plain.seconds * 1e3;
  json_metrics["ua741_refgen_plain_evaluations"] = plain.total_evaluations;

  if (max_threads <= 1) return;
  // Same adaptive run across the thread ladder; coefficients must come out
  // bit-identical to the one-lane run at every thread count (independent
  // replays of the per-iteration baseline plan, ordered reductions).
  std::printf("--- parallel adaptive run (deflated) ---\n");
  bool all_identical = true;
  for (const int threads : thread_ladder(max_threads)) {
    symref::refgen::AdaptiveOptions options;
    options.threads = threads;
    symref::support::Timer timer;
    const auto result = symref::refgen::generate_reference(ua, spec, options);
    const double ms = timer.millis();
    bool identical = result.total_evaluations == deflated.total_evaluations &&
                     result.iterations.size() == deflated.iterations.size();
    auto same_poly = [&](const symref::refgen::PolynomialReference& a,
                         const symref::refgen::PolynomialReference& b) {
      for (int i = 0; i <= a.order_bound(); ++i) {
        if (!(a.at(i).value == b.at(i).value)) return false;
      }
      return true;
    };
    identical = identical &&
                same_poly(result.reference.numerator(), deflated.reference.numerator()) &&
                same_poly(result.reference.denominator(), deflated.reference.denominator());
    all_identical = all_identical && identical;
    std::printf("threads=%2d: %8.2f ms  (%.2fx vs 1 thread)  bit-identical: %s\n", threads,
                ms, (deflated.seconds * 1e3) / ms, identical ? "yes" : "NO");
    json_metrics["ua741_refgen_deflated_ms_t" + std::to_string(threads)] = ms;
  }
  json_metrics["ua741_refgen_parallel_bit_identical"] = all_identical ? 1.0 : 0.0;
  std::printf("\n");
}

void BM_Ua741ReferenceDeflated(benchmark::State& state) {
  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();
  for (auto _ : state) {
    auto result = symref::refgen::generate_reference(ua, spec);
    benchmark::DoNotOptimize(result.total_evaluations);
  }
}
BENCHMARK(BM_Ua741ReferenceDeflated)->Unit(benchmark::kMillisecond);

void BM_Ua741ReferencePlain(benchmark::State& state) {
  const auto ua = symref::circuits::ua741();
  const auto spec = symref::circuits::ua741_gain_spec();
  symref::refgen::AdaptiveOptions options;
  options.use_deflation = false;
  for (auto _ : state) {
    auto result = symref::refgen::generate_reference(ua, spec, options);
    benchmark::DoNotOptimize(result.total_evaluations);
  }
}
BENCHMARK(BM_Ua741ReferencePlain)->Unit(benchmark::kMillisecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json", "threads"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  const int max_threads = args.get_int("threads", 1);
  print_iteration_costs(max_threads);
  measure_bode_sweep(max_threads);
  if (!symref::support::merge_bench_json(json_path, json_metrics)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("metrics merged into %s\n\n", json_path.c_str());
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
