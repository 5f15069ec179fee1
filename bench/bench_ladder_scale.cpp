// Ablation A4: scalability of the reference generator with circuit size.
//
// RC ladders of increasing order n: the engine needs O(n) interpolation
// points per iteration and a sparse LU per point (the ladder factors with
// zero fill), so total work should grow roughly as n^2 with a small number
// of iterations independent of n. google-benchmark timings per size follow
// the summary table.
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json);
// --threads N re-runs the largest-ladder generation across 1, 2, 4, ... N
// lanes and emits one metrics row per thread count; --max-stages N raises
// the top of the refgen size axis beyond the default 128 (powers of two up
// to N).
//
// A second section benchmarks the replay paths themselves (the scalar
// oracle, forced through sparse::testing::ScopedScalarReplay, vs the
// automatic batched SoA path, see sparse/batched.h) on the large-size axis —
// ladder-1024, ladder-4096 and RC grid meshes (genuine fill-in) — and
// records the samples_per_sec_per_core headline metric plus the
// batched-over-scalar speedup per circuit. Each replay row is the median of
// 7 windows of thread CPU time, printed with the windows' min-max range.
//
// BM_CoefficientTransform times the paper's eq. (5) alone: the extended-range
// coefficient recovery the engine runs on every iteration, at K = 37 (the
// µA741's size) and at the ladder sizes just above a power of two, where the
// transform is the direct O(K^2) one.
#include <benchmark/benchmark.h>
#include <time.h>  // clock_gettime, CLOCK_THREAD_CPUTIME_ID

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "numeric/dft.h"
#include "refgen/adaptive.h"
#include "sparse/batched.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/random.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using symref::support::thread_ladder;

/// CPU time of the calling thread: a replay window measured in it does not
/// count the time the host gives to other processes.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

struct Throughput {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Sustained single-thread replay throughput on one circuit: repeated
/// evaluate_batch() over a fixed probe-point set (the engine's inner loop
/// with the adaptive logic stripped away), on the scalar oracle path when
/// `force_scalar`. The first batch warms the caches and establishes the
/// factorization plan before timing starts. Each of 7 windows replays until
/// it has used 0.1 s of thread CPU time.
Throughput replay_samples_per_sec(const symref::mna::CofactorEvaluator& evaluator,
                                  const std::vector<std::complex<double>>& points,
                                  double f_scale, bool force_scalar) {
  constexpr int kWindows = 7;
  constexpr double kWindowSeconds = 0.1;
  std::optional<symref::sparse::testing::ScopedScalarReplay> scalar;
  if (force_scalar) scalar.emplace();
  auto warm = evaluator.evaluate_batch(points, f_scale, 1.0);
  benchmark::DoNotOptimize(warm.data());
  std::vector<double> rates;
  for (int window = 0; window < kWindows; ++window) {
    const double start = thread_cpu_seconds();
    double elapsed = 0.0;
    std::size_t samples = 0;
    while (elapsed < kWindowSeconds) {
      auto batch = evaluator.evaluate_batch(points, f_scale, 1.0);
      benchmark::DoNotOptimize(batch.data());
      samples += batch.size();
      elapsed = thread_cpu_seconds() - start;
    }
    rates.push_back(static_cast<double>(samples) / elapsed);
  }
  std::sort(rates.begin(), rates.end());
  return {rates[kWindows / 2], rates.front(), rates.back()};
}

/// "median [min, max]" of a throughput row.
std::string format_throughput(const Throughput& rate) {
  return symref::support::format_sci(rate.median, 3) + " [" +
         symref::support::format_sci(rate.min, 3) + ", " +
         symref::support::format_sci(rate.max, 3) + "]";
}

void print_kernel_throughput(std::map<std::string, double>& json_metrics) {
  std::printf("--- replay path throughput (single thread) ---\n");
  struct Row {
    const char* tag;
    symref::netlist::Circuit circuit;
    symref::mna::TransferSpec spec;
    int points;
  };
  std::vector<Row> rows;
  rows.push_back({"ladder1024", symref::circuits::rc_ladder(1024),
                  symref::circuits::rc_ladder_spec(1024), 256});
  rows.push_back({"ladder4096", symref::circuits::rc_ladder(4096),
                  symref::circuits::rc_ladder_spec(4096), 64});
  rows.push_back({"grid_mesh16", symref::circuits::grid_mesh(16, 16),
                  symref::circuits::grid_mesh_spec(16, 16), 256});
  rows.push_back({"grid_mesh32", symref::circuits::grid_mesh(32, 32),
                  symref::circuits::grid_mesh_spec(32, 32), 128});

  symref::support::TextTable table;
  table.set_header({"circuit", "dim", "scalar [samp/s, median [min, max]]",
                    "batched [samp/s, median [min, max]]", "speedup"});
  for (Row& row : rows) {
    const auto canonical = symref::netlist::canonicalize(row.circuit);
    const symref::mna::NodalSystem system(canonical);
    const symref::mna::CofactorEvaluator evaluator(system, row.spec);
    // Probe points on the upper unit semicircle (the engine's scaled domain);
    // all circuits here use R=1k/C=1n, so 1/(RC) re-centres s*C against G.
    const double f_scale = 1e6;
    std::vector<std::complex<double>> points(static_cast<std::size_t>(row.points));
    for (int k = 0; k < row.points; ++k) {
      const double theta = 3.141592653589793 * (k + 0.5) / row.points;
      points[static_cast<std::size_t>(k)] = {std::cos(theta), std::sin(theta)};
    }
    const Throughput scalar = replay_samples_per_sec(evaluator, points, f_scale, true);
    const Throughput batched = replay_samples_per_sec(evaluator, points, f_scale, false);
    const double speedup = scalar.median > 0.0 ? batched.median / scalar.median : 0.0;
    table.add_row({row.tag, std::to_string(system.dim()), format_throughput(scalar),
                   format_throughput(batched), symref::support::format_sci(speedup, 3)});
    const std::string prefix = std::string(row.tag) + "_";
    json_metrics[prefix + "scalar_samples_per_sec_per_core"] = scalar.median;
    json_metrics[prefix + "batched_samples_per_sec_per_core"] = batched.median;
    json_metrics[prefix + "batched_speedup"] = speedup;
  }
  std::printf("%s\n", table.str().c_str());
  // Headline metric: batched throughput on the ladder-1024 size axis.
  json_metrics["samples_per_sec_per_core"] =
      json_metrics["ladder1024_batched_samples_per_sec_per_core"];
}

void print_summary(const std::string& json_path, int max_threads, int max_stages) {
  std::map<std::string, double> json_metrics;
  std::printf("=== Ablation A4: adaptive reference generation vs ladder size ===\n\n");
  std::vector<int> sizes;
  for (int n = 4; n <= std::max(4, max_stages); n *= 2) sizes.push_back(n);
  symref::support::TextTable table;
  table.set_header({"n (order)", "iterations", "LU evaluations", "time [ms]", "complete"});
  for (const int n : sizes) {
    const auto ladder = symref::circuits::rc_ladder(n);
    const auto spec = symref::circuits::rc_ladder_spec(n);
    const auto result = symref::refgen::generate_reference(ladder, spec);
    table.add_row({
        std::to_string(n),
        std::to_string(result.iterations.size()),
        std::to_string(result.total_evaluations),
        symref::support::format_sci(result.seconds * 1e3, 3),
        result.complete ? "yes" : result.termination,
    });
    const std::string prefix = "ladder" + std::to_string(n) + "_refgen_";
    json_metrics[prefix + "ms"] = result.seconds * 1e3;
    json_metrics[prefix + "evaluations"] = result.total_evaluations;
  }
  std::printf("%s\n", table.str().c_str());

  // Per-interpolation-point kernel: assemble + factor/refactor + solve on
  // the µA741 matrix (the innermost repeated-evaluation hot path).
  {
    const auto ua = symref::circuits::ua741();
    const auto canonical = symref::netlist::canonicalize(ua);
    const symref::mna::NodalSystem system(canonical);
    const symref::mna::CofactorEvaluator evaluator(system,
                                                   symref::circuits::ua741_gain_spec());
    const std::complex<double> s(0.30901699437494745, 0.9510565162951535);
    constexpr int kWarmup = 50;
    constexpr int kSamples = 2000;
    for (int i = 0; i < kWarmup; ++i) {
      auto sample = evaluator.evaluate(s, 2.7e10, 283.0);
      benchmark::DoNotOptimize(sample.denominator);
    }
    symref::support::Timer timer;
    for (int i = 0; i < kSamples; ++i) {
      auto sample = evaluator.evaluate(s, 2.7e10, 283.0);
      benchmark::DoNotOptimize(sample.denominator);
    }
    const double micros = timer.seconds() * 1e6 / kSamples;
    std::printf("µA741 evaluate() kernel: %.2f us/point (%d samples)\n\n", micros, kSamples);
    json_metrics["ua741_evaluate_us"] = micros;
  }

  if (max_threads > 1) {
    // Largest ladder across the thread ladder: the per-iteration point
    // batches grow with n, so this is the best-scaling refgen workload.
    const int top = sizes.back();
    std::printf("--- ladder-%d reference generation, parallel ---\n", top);
    const auto ladder = symref::circuits::rc_ladder(top);
    const auto spec = symref::circuits::rc_ladder_spec(top);
    for (const int threads : thread_ladder(max_threads)) {
      symref::refgen::AdaptiveOptions options;
      options.threads = threads;
      symref::support::Timer timer;
      const auto result = symref::refgen::generate_reference(ladder, spec, options);
      const double ms = timer.millis();
      std::printf("threads=%2d: %8.2f ms (%d evaluations)\n", threads, ms,
                  result.total_evaluations);
      json_metrics["ladder" + std::to_string(top) + "_refgen_ms_t" + std::to_string(threads)] =
          ms;
    }
    std::printf("\n");
  }

  print_kernel_throughput(json_metrics);

  if (!symref::support::merge_bench_json(json_path, json_metrics)) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  } else {
    std::printf("metrics merged into %s\n\n", json_path.c_str());
  }
}

void BM_LadderReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto ladder = symref::circuits::rc_ladder(n);
  const auto spec = symref::circuits::rc_ladder_spec(n);
  for (auto _ : state) {
    auto result = symref::refgen::generate_reference(ladder, spec);
    benchmark::DoNotOptimize(result.total_evaluations);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LadderReference)->RangeMultiplier(2)->Range(4, 128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_Ua741SparseLuPerPoint(benchmark::State& state) {
  // The per-interpolation-point kernel: factor + solve on the 741 matrix.
  const auto ua = symref::circuits::ua741();
  const auto canonical = symref::netlist::canonicalize(ua);
  const symref::mna::NodalSystem system(canonical);
  const symref::mna::CofactorEvaluator evaluator(system,
                                                 symref::circuits::ua741_gain_spec());
  const std::complex<double> s(0.30901699437494745, 0.9510565162951535);
  for (auto _ : state) {
    auto sample = evaluator.evaluate(s, 2.7e10, 283.0);
    benchmark::DoNotOptimize(sample.denominator);
  }
}
BENCHMARK(BM_Ua741SparseLuPerPoint)->Unit(benchmark::kMicrosecond);

void BM_CoefficientTransform(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  symref::support::Rng rng(count);
  std::vector<symref::numeric::ScaledComplex> samples(count);
  for (auto& sample : samples) {
    sample = symref::numeric::ScaledComplex::from_mantissa_exp(
        {rng.uniform(-1, 1), rng.uniform(-1, 1)},
        static_cast<std::int64_t>(rng.uniform_index(41)) - 20);
  }
  for (auto _ : state) {
    auto coefficients = symref::numeric::coefficients_from_unit_circle_samples(samples);
    benchmark::DoNotOptimize(coefficients.data());
  }
}
BENCHMARK(BM_CoefficientTransform)->Arg(37)->Arg(257)->Arg(513)->Arg(1025)->Arg(2049)
    ->Unit(benchmark::kMillisecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json", "threads", "max-stages"});
  print_summary(args.get("json", symref::support::kBenchJsonPath), args.get_int("threads", 1),
                args.get_int("max-stages", 128));
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] { return run(argc, argv); });
}
