// Plan-replay economics of transient time stepping on the µA741 deck: a
// constant-step run factors three times (bias + consistent init + the one
// step bucket) and replays the bucket plan for every remaining step. The
// headline number is that replay stepping vs the same run with every replay
// refused (each step forced through a fresh factorization, via the lu_pivot
// fault site) — the speedup the bucket contract buys.
//
// Emitted rows (BENCH_refgen.json via --json <path>):
//   transient_ua741_1024_steps_ms      41-node deck, 1024 trapezoidal steps
//   transient_ua741_us_per_step        per-step replay cost
//   transient_fresh_factorizations     plan probe (3 = bias + init + bucket)
//   transient_fresh_per_step_ms        same run, every replay refused
//   transient_replay_speedup_vs_fresh  ratio of the two
//   transient_rectifier_1000_steps_ms  Newton-per-step nonlinear stepping
//   transient_rectifier_newton_iters   total Newton iterations of that run
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "netlist/parser.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/fault_injection.h"
#include "support/timer.h"
#include "transient/transient.h"

namespace {

std::map<std::string, double> json_metrics;

const std::string& ua741_text() {
  static const std::string text = [] {
    const std::string path = std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741.cir";
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }();
  return text;
}

/// µA741 deck driven by a 1 mV, 1 kHz sine at inp — the FFT suite's
/// steady-state workload, truncated to a benchmark-sized window.
symref::netlist::Circuit driven_ua741() {
  symref::netlist::Circuit c = symref::netlist::parse_netlist(ua741_text());
  c.add_vsource("vin", "inp", "0", 0.0);
  symref::netlist::Element* vin = c.mutable_element("vin");
  vin->waveform.kind = symref::netlist::WaveformKind::kSin;
  vin->waveform.v2 = 1e-3;
  vin->waveform.frequency = 1e3;
  return c;
}

symref::transient::TransientOptions fixed_step(double tstop, double tstep) {
  symref::transient::TransientOptions o;
  o.tstop = tstop;
  o.tstep = tstep;
  o.adaptive = false;
  return o;
}

constexpr const char* kRectifierNetlist =
    "* half-wave rectifier\n"
    ".model dfast d is=1e-14 n=1\n"
    "vin in 0 dc 0 sin(0 5 1k)\n"
    "r1 in out 1k\n"
    "d1 out 0 dfast\n"
    ".end\n";

void measure() {
  using symref::support::Timer;

  const symref::netlist::Circuit deck = driven_ua741();
  constexpr int kSteps = 1024;
  const symref::transient::TransientOptions options =
      fixed_step(16.0 / 1e3, 16.0 / 1e3 / kSteps);  // 16 periods, 64 pts each

  std::printf("=== µA741 transient: %d trapezoidal steps, one bucket plan ===\n\n", kSteps);

  // Replay stepping: best of a few runs to shake out first-touch noise.
  double replay_ms = 1e300;
  symref::transient::TransientResult result;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    result = symref::transient::solve_transient(deck, options);
    const double ms = timer.millis();
    if (ms < replay_ms) replay_ms = ms;
  }
  if (result.fresh_factorizations != 3) {
    std::fprintf(stderr, "expected 3 fresh factorizations, saw %llu\n",
                 static_cast<unsigned long long>(result.fresh_factorizations));
  }

  // The same run with every bucket replay refused: each step (and each
  // init/bias iterate) pays a full fresh factorization — the cost replay
  // stepping avoids.
  symref::support::FaultInjector::instance().configure("lu_pivot:1");
  double fresh_ms = 1e300;
  symref::transient::TransientResult fresh;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    fresh = symref::transient::solve_transient(deck, options);
    const double ms = timer.millis();
    if (ms < fresh_ms) fresh_ms = ms;
  }
  symref::support::FaultInjector::instance().reset();

  std::printf("replay stepping (bucket plan):  %8.3f ms  (%d steps, %llu fresh "
              "factorizations, %.2f us/step)\n",
              replay_ms, result.steps,
              static_cast<unsigned long long>(result.fresh_factorizations),
              1e3 * replay_ms / result.steps);
  std::printf("fresh factor per step (forced): %8.3f ms  (%llu fresh factorizations)\n",
              fresh_ms, static_cast<unsigned long long>(fresh.fresh_factorizations));
  std::printf("replay vs fresh:                %8.2fx\n\n", fresh_ms / replay_ms);

  json_metrics["transient_ua741_1024_steps_ms"] = replay_ms;
  json_metrics["transient_ua741_us_per_step"] = 1e3 * replay_ms / result.steps;
  json_metrics["transient_fresh_factorizations"] =
      static_cast<double>(result.fresh_factorizations);
  json_metrics["transient_fresh_per_step_ms"] = fresh_ms;
  json_metrics["transient_replay_speedup_vs_fresh"] = fresh_ms / replay_ms;

  // Newton-per-step on a nonlinear deck: every iterate of every step is a
  // replay of the same bucket plan.
  const symref::netlist::Circuit rectifier =
      symref::netlist::parse_netlist(kRectifierNetlist);
  double rectifier_ms = 1e300;
  symref::transient::TransientResult rect;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    rect = symref::transient::solve_transient(rectifier, fixed_step(2e-3, 2e-6));
    const double ms = timer.millis();
    if (ms < rectifier_ms) rectifier_ms = ms;
  }
  std::printf("rectifier (Newton per step):    %8.3f ms  (%d steps, %d Newton "
              "iterations)\n\n",
              rectifier_ms, rect.steps, rect.newton_iterations);
  json_metrics["transient_rectifier_1000_steps_ms"] = rectifier_ms;
  json_metrics["transient_rectifier_newton_iters"] =
      static_cast<double>(rect.newton_iterations);
}

void BM_TransientReplaySteps(benchmark::State& state) {
  const symref::netlist::Circuit deck = driven_ua741();
  const symref::transient::TransientOptions options =
      fixed_step(16.0 / 1e3, 16.0 / 1e3 / 1024);
  for (auto _ : state) {
    const symref::transient::TransientResult r =
        symref::transient::solve_transient(deck, options);
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(BM_TransientReplaySteps)->Unit(benchmark::kMillisecond);

void BM_TransientRectifier(benchmark::State& state) {
  const symref::netlist::Circuit deck = symref::netlist::parse_netlist(kRectifierNetlist);
  for (auto _ : state) {
    const symref::transient::TransientResult r =
        symref::transient::solve_transient(deck, fixed_step(2e-3, 2e-6));
    benchmark::DoNotOptimize(r.newton_iterations);
  }
}
BENCHMARK(BM_TransientRectifier)->Unit(benchmark::kMillisecond);

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
