// Served-protocol economics: what the async job layer costs and sustains.
//
// The daemon's serving loop is JobManager::submit -> worker -> api::Service
// -> done. This bench measures that loop on the µA741:
//
//   submit->done latency — one job end to end on an idle manager, cold
//     (first request on the handle), warm-miss (compiled circuit reused,
//     distinct options), and warm (response-cache hit: the idempotent-server
//     path);
//   throughput — N distinct refgen jobs (response cache off, so every job
//     runs the engine) at 1/2/8 workers, reported as jobs per second.
//
// Acceptance rows (BENCH_refgen.json):
//   server_submit_done_warm_ms, server_jobs_per_sec_w1/w2/w8
//
// The dev container is single-core, so w2/w8 show ~1x; on real cores the
// jobs are shared-nothing and scale like the batch path.
//
// Flags: --json <path> selects the metrics file (default BENCH_refgen.json).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/jobs.h"
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

symref::api::AnyRequest refgen_request(int sigma) {
  symref::api::AnyRequest request;
  request.type = symref::api::AnyRequest::Type::kRefgen;
  request.refgen.spec = symref::circuits::ua741_gain_spec();
  request.refgen.options.sigma = sigma;
  return request;
}

/// Submit one job, wait for it, return the wall time in ms (-1 on failure).
double submit_done_ms(symref::api::JobManager& jobs, const symref::api::CircuitHandle& handle,
                      const symref::api::AnyRequest& request) {
  symref::support::Timer timer;
  const symref::api::JobId id = jobs.submit(handle, request);
  const auto outcome = jobs.wait(id);
  const double ms = timer.millis();
  if (!outcome.ok() || !outcome.value().status.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 (outcome.ok() ? outcome.value().status : outcome.status()).to_string().c_str());
    return -1.0;
  }
  return ms;
}

void measure_latency() {
  const symref::api::Service service;
  const auto compiled = service.compile_netlist(ua741_netlist());
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().to_string().c_str());
    return;
  }
  symref::api::JobManager jobs(service, /*workers=*/1);

  const double cold_ms = submit_done_ms(jobs, compiled.value(), refgen_request(6));
  // Same spec, different sigma: the response cache misses, so the engine
  // runs in full on the already compiled circuit.
  const double miss_ms = submit_done_ms(jobs, compiled.value(), refgen_request(7));
  // Identical request: response-cache hit through the whole job machinery.
  const double warm_ms = submit_done_ms(jobs, compiled.value(), refgen_request(6));
  if (cold_ms < 0 || miss_ms < 0 || warm_ms < 0) return;

  std::printf("=== JobManager µA741 refgen: submit -> done latency ===\n\n");
  std::printf("cold (first request):          %8.3f ms\n", cold_ms);
  std::printf("warm miss (compiled circuit):  %8.3f ms  (%.1fx)\n", miss_ms,
              cold_ms / miss_ms);
  std::printf("warm (response-cache hit):     %8.3f ms  (%.0fx)\n\n", warm_ms,
              cold_ms / warm_ms);
  json_metrics["server_submit_done_cold_ms"] = cold_ms;
  json_metrics["server_submit_done_warm_miss_ms"] = miss_ms;
  json_metrics["server_submit_done_warm_ms"] = warm_ms;
}

void measure_throughput() {
  constexpr int kJobs = 24;
  std::printf("=== JobManager µA741 refgen: jobs/sec at 1/2/8 workers ===\n\n");
  for (const int workers : {1, 2, 8}) {
    // No response cache: every job runs the engine (the sustained-load
    // case, not the memoized one). Distinct sigmas defeat any replay of
    // identical work while keeping per-job cost comparable.
    symref::api::ServiceOptions options;
    options.max_cached_responses = 0;
    const symref::api::Service service(options);
    const auto compiled = service.compile_netlist(ua741_netlist());
    if (!compiled.ok()) return;
    symref::api::JobManager jobs(service, workers);
    // Warm the handle once so the measured jobs compare warm runs, not one
    // cold outlier.
    (void)jobs.wait(jobs.submit(compiled.value(), refgen_request(6)));

    symref::support::Timer timer;
    std::vector<symref::api::JobId> ids;
    ids.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      ids.push_back(jobs.submit(compiled.value(), refgen_request(6 + (i % 3))));
    }
    bool ok = true;
    for (const symref::api::JobId id : ids) {
      const auto outcome = jobs.wait(id);
      ok = ok && outcome.ok() && outcome.value().status.ok();
    }
    const double seconds = timer.seconds();
    if (!ok) {
      std::fprintf(stderr, "throughput run failed at %d workers\n", workers);
      return;
    }
    const double jobs_per_sec = kJobs / seconds;
    std::printf("workers=%d:  %6.1f jobs/sec  (%d jobs in %.1f ms)\n", workers,
                jobs_per_sec, kJobs, seconds * 1e3);
    json_metrics["server_jobs_per_sec_w" + std::to_string(workers)] = jobs_per_sec;
  }
  std::printf("\n");
}

void BM_SubmitDoneWarm(benchmark::State& state) {
  const symref::api::Service service;
  const auto compiled = service.compile_netlist(ua741_netlist());
  symref::api::JobManager jobs(service, 1);
  (void)jobs.wait(jobs.submit(compiled.value(), refgen_request(6)));
  for (auto _ : state) {
    const auto outcome = jobs.wait(jobs.submit(compiled.value(), refgen_request(6)));
    benchmark::DoNotOptimize(outcome.ok());
  }
}
BENCHMARK(BM_SubmitDoneWarm)->Unit(benchmark::kMicrosecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  measure_latency();
  measure_throughput();
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
