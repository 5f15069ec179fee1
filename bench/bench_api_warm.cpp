// Warm-handle economics of the api::Service facade on the µA741.
//
// A long-lived server compiles a circuit once and then answers many
// requests against the handle. This bench measures what that buys:
//
//   cold      — fresh Service: parse the netlist, canonicalize, build the
//               NodalSystem, then serve the request (what every caller paid
//               per query before the facade existed);
//   warm      — second identical request on the same handle (response-cache
//               hit: the idempotent-server path);
//   warm-miss — different engine options on the same handle (the response
//               cache misses; the compiled circuit is reused, and the engine
//               runs in full on a fresh evaluator, as on a fresh handle).
//
// Acceptance row: api_refgen_warm_speedup (warm vs cold) must be >= 3.
//
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "api/service.h"
#include "circuits/ua741.h"
#include "netlist/writer.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/timer.h"

namespace {

std::map<std::string, double> json_metrics;

const std::string& ua741_netlist() {
  static const std::string text =
      symref::netlist::write_netlist(symref::circuits::ua741());
  return text;
}

symref::api::RefgenRequest refgen_request() {
  return {symref::circuits::ua741_gain_spec(), {}};
}

symref::api::SweepRequest sweep_request() {
  symref::api::SweepRequest request;
  request.spec = symref::circuits::ua741_gain_spec();
  request.f_start_hz = 1.0;
  request.f_stop_hz = 1e8;
  request.points_per_decade = 20;
  return request;
}

void measure_refgen() {
  // Cold: the whole pipeline, netlist text to reference.
  symref::support::Timer cold_timer;
  const symref::api::Service cold_service;
  const auto cold_handle = cold_service.compile_netlist(ua741_netlist());
  if (!cold_handle.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", cold_handle.status().to_string().c_str());
    return;
  }
  const auto cold = cold_service.refgen(cold_handle.value(), refgen_request());
  const double cold_ms = cold_timer.millis();
  if (!cold.ok()) {
    std::fprintf(stderr, "cold refgen failed: %s\n", cold.status().to_string().c_str());
    return;
  }

  // Warm: identical request on the same handle (response-cache hit).
  symref::support::Timer warm_timer;
  const auto warm = cold_service.refgen(cold_handle.value(), refgen_request());
  const double warm_ms = warm_timer.millis();

  // Warm miss: same handle + spec, different sigma — the response cache
  // misses; only the handle's compiled circuit is reused.
  symref::api::RefgenRequest miss = refgen_request();
  miss.options.sigma = 7;
  symref::support::Timer miss_timer;
  const auto warm_miss = cold_service.refgen(cold_handle.value(), miss);
  const double miss_ms = miss_timer.millis();

  std::printf("=== api::Service µA741 refgen: cold vs warm handle ===\n\n");
  std::printf("cold (compile + request):      %8.3f ms\n", cold_ms);
  std::printf("warm (cache hit):              %8.3f ms  (%.0fx)\n", warm_ms,
              cold_ms / warm_ms);
  std::printf("warm miss (compiled circuit):  %8.3f ms  (%.1fx)\n\n", miss_ms,
              cold_ms / miss_ms);
  json_metrics["api_refgen_cold_ms"] = cold_ms;
  json_metrics["api_refgen_warm_ms"] = warm_ms;
  json_metrics["api_refgen_warm_speedup"] = cold_ms / warm_ms;
  json_metrics["api_refgen_warm_miss_ms"] = miss_ms;
  json_metrics["api_refgen_warm_hit"] = warm.ok() && warm.value().from_cache ? 1.0 : 0.0;
  json_metrics["api_refgen_warm_miss_recomputed"] =
      warm_miss.ok() && !warm_miss.value().from_cache ? 1.0 : 0.0;
}

void measure_sweep() {
  symref::support::Timer cold_timer;
  const symref::api::Service service;
  const auto handle = service.compile_netlist(ua741_netlist());
  if (!handle.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", handle.status().to_string().c_str());
    return;
  }
  const auto cold = service.sweep(handle.value(), sweep_request());
  const double cold_ms = cold_timer.millis();
  if (!cold.ok()) {
    std::fprintf(stderr, "cold sweep failed: %s\n", cold.status().to_string().c_str());
    return;
  }

  symref::support::Timer warm_timer;
  const auto warm = service.sweep(handle.value(), sweep_request());
  const double warm_ms = warm_timer.millis();

  // Different grid on the same handle: the response cache misses and a
  // fresh simulator sweeps it, replaying one factorization plan per point.
  symref::api::SweepRequest other = sweep_request();
  other.points_per_decade = 19;
  symref::support::Timer replan_timer;
  const auto replan = service.sweep(handle.value(), other);
  const double replan_ms = replan_timer.millis();

  std::printf("=== api::Service µA741 sweep (%zu points): cold vs warm handle ===\n\n",
              cold.value().points.size());
  std::printf("cold (compile + sweep):        %8.3f ms\n", cold_ms);
  std::printf("warm (cache hit):              %8.3f ms  (%.0fx)\n", warm_ms,
              cold_ms / warm_ms);
  std::printf("new grid (cache miss):         %8.3f ms  (%.1fx)\n\n", replan_ms,
              cold_ms / replan_ms);
  json_metrics["api_sweep_cold_ms"] = cold_ms;
  json_metrics["api_sweep_warm_ms"] = warm_ms;
  json_metrics["api_sweep_warm_speedup"] = cold_ms / warm_ms;
  json_metrics["api_sweep_new_grid_ms"] = replan_ms;
  json_metrics["api_sweep_warm_hit"] = warm.ok() && warm.value().from_cache ? 1.0 : 0.0;
  (void)replan;
}

void BM_ApiRefgenCold(benchmark::State& state) {
  for (auto _ : state) {
    const symref::api::Service service;
    const auto handle = service.compile_netlist(ua741_netlist());
    auto response = service.refgen(handle.value(), refgen_request());
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_ApiRefgenCold)->Unit(benchmark::kMillisecond);

void BM_ApiRefgenWarm(benchmark::State& state) {
  const symref::api::Service service;
  const auto handle = service.compile_netlist(ua741_netlist());
  (void)service.refgen(handle.value(), refgen_request());
  for (auto _ : state) {
    auto response = service.refgen(handle.value(), refgen_request());
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_ApiRefgenWarm)->Unit(benchmark::kMicrosecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  measure_refgen();
  measure_sweep();
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
