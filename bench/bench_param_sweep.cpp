// Parameter-sweep economics on the µA741: plan-reused per-sample cost vs
// the cold compile+refgen a caller would pay without the sweep engine.
//
// The workload is the acceptance scenario: a 256-sample Monte-Carlo study
// over the compensation capacitor and output load of the bundled µA741,
// probing the transfer function on a small log grid per sample. The whole
// study replays ONE symbolic factorization plan (fresh_factorizations == 1
// is asserted into the metrics), so the per-sample cost is a handful of
// refactor+solve replays instead of a full parse/canonicalize/plan/engine
// pipeline.
//
// Acceptance row: param_sweep_speedup_vs_cold (cold compile+refgen per
// sample vs plan-reused per sample) must be >= 5.
//
// Emitted rows (BENCH_refgen.json via --json <path>):
//   param_sweep_cold_compile_refgen_ms   cold pipeline, one sample's worth
//   param_sweep_warm_sample_us           plan-reused cost per sample
//   param_sweep_speedup_vs_cold          ratio of the two
//   param_sweep_fresh_factorizations     plan probe (1 = full replay)
//   param_sweep_samples_per_s_t<N>       throughput at 1/2/8 lanes
//   param_sweep_bit_identical_t<N>       1 when t<N> == t1 bit-for-bit
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "api/service.h"
#include "circuits/ua741.h"
#include "netlist/writer.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/timer.h"

namespace {

std::map<std::string, double> json_metrics;

/// The bundled µA741 with compensation/load lifted to .param symbols
/// (nominals reproduce circuits::ua741() exactly) — the same construction
/// as tests/mna/param_sweep_test.cpp.
const std::string& parameterized_ua741() {
  static const std::string text = [] {
    std::istringstream in(symref::netlist::write_netlist(symref::circuits::ua741()));
    std::ostringstream out;
    out << ".param ccomp=30p rload=2k\n";
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("cc ", 0) == 0) {
        out << line.substr(0, line.rfind(' ')) << " {ccomp}\n";
      } else if (line.rfind("rl ", 0) == 0) {
        out << line.substr(0, line.rfind(' ')) << " {rload}\n";
      } else {
        out << line << '\n';
      }
    }
    return out.str();
  }();
  return text;
}

symref::api::ParamSweepRequest mc_request(int threads) {
  symref::api::ParamSweepRequest request;
  request.spec = symref::circuits::ua741_gain_spec();
  request.mode = symref::api::ParamSweepRequest::Mode::kMonteCarlo;
  request.dists = {{"ccomp", 30e-12, 0.1, symref::mna::ParamDist::Kind::kGaussian},
                   {"rload", 2e3, 0.05, symref::mna::ParamDist::Kind::kGaussian}};
  request.samples = 256;
  request.seed = 20260727;
  request.f_start_hz = 1.0;
  request.f_stop_hz = 1e6;
  request.points_per_decade = 1;
  request.threads = threads;
  return request;
}

void measure() {
  using symref::api::Service;
  using symref::support::Timer;

  // Cold: what one parameter sample costs without the sweep engine —
  // recompile the netlist text and run a fresh reference generation.
  Timer cold_timer;
  double cold_ms = 0.0;
  {
    const Service cold_service;
    const auto handle = cold_service.compile_netlist(parameterized_ua741());
    if (!handle.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", handle.status().to_string().c_str());
      return;
    }
    const auto reference =
        cold_service.refgen(handle.value(), {symref::circuits::ua741_gain_spec(), {}});
    cold_ms = cold_timer.millis();
    if (!reference.ok()) {
      std::fprintf(stderr, "cold refgen failed: %s\n",
                   reference.status().to_string().c_str());
      return;
    }
  }

  const Service service;
  const auto compiled = service.compile_netlist(parameterized_ua741());
  if (!compiled.ok()) return;
  const symref::api::CircuitHandle handle = compiled.value();

  std::printf("=== µA741 256-sample Monte-Carlo parameter sweep ===\n\n");
  std::printf("cold compile+refgen (per-sample without sweeps): %8.3f ms\n\n", cold_ms);
  json_metrics["param_sweep_cold_compile_refgen_ms"] = cold_ms;

  const symref::api::ParamSweepResponse* serial = nullptr;
  symref::api::Result<symref::api::ParamSweepResponse> kept(symref::api::Status::error(
      symref::api::StatusCode::kInternal, "not run"));
  for (const int threads : {1, 2, 8}) {
    // Fresh service per thread count: no response-cache shortcuts.
    const Service fresh_service;
    const auto fresh_handle = fresh_service.compile_netlist(parameterized_ua741());
    Timer timer;
    auto response = fresh_service.param_sweep(fresh_handle.value(), mc_request(threads));
    const double ms = timer.millis();
    if (!response.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n", response.status().to_string().c_str());
      return;
    }
    const auto& result = response.value().result;
    const double samples_per_s = 256.0 / (ms / 1e3);
    const double sample_us = ms * 1e3 / 256.0;
    std::printf(
        "t%-2d  %8.3f ms total  %7.2f us/sample  %9.0f samples/s  (%llu fresh "
        "factorization%s)\n",
        threads, ms, sample_us, samples_per_s,
        static_cast<unsigned long long>(result.fresh_factorizations),
        result.fresh_factorizations == 1 ? "" : "s");
    char key[64];
    std::snprintf(key, sizeof(key), "param_sweep_samples_per_s_t%d", threads);
    json_metrics[key] = samples_per_s;
    if (threads == 1) {
      json_metrics["param_sweep_warm_sample_us"] = sample_us;
      json_metrics["param_sweep_speedup_vs_cold"] = cold_ms * 1e3 / sample_us;
      json_metrics["param_sweep_fresh_factorizations"] =
          static_cast<double>(result.fresh_factorizations);
      kept = std::move(response);
      serial = &kept.value();
    } else {
      bool identical = serial != nullptr &&
                       serial->result.response.size() == result.response.size();
      if (identical) {
        for (std::size_t i = 0; i < result.response.size(); ++i) {
          if (serial->result.response[i] != result.response[i]) {
            identical = false;
            break;
          }
        }
      }
      std::snprintf(key, sizeof(key), "param_sweep_bit_identical_t%d", threads);
      json_metrics[key] = identical ? 1.0 : 0.0;
    }
  }
  std::printf("\nplan-reused sample vs cold compile+refgen: %.0fx\n\n",
              json_metrics["param_sweep_speedup_vs_cold"]);
}

void BM_ParamSweepMc256(benchmark::State& state) {
  const symref::api::Service service;
  const auto handle = service.compile_netlist(parameterized_ua741());
  auto request = mc_request(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // Vary the seed so the response cache never serves the request.
    ++request.seed;
    auto response = service.param_sweep(handle.value(), request);
    benchmark::DoNotOptimize(response.ok());
  }
}
BENCHMARK(BM_ParamSweepMc256)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

int run(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  const symref::support::CliArgs args(argc, argv, {"json"});
  const std::string json_path = args.get("json", symref::support::kBenchJsonPath);
  measure();
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
