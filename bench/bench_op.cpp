// Newton .op economics on the transistor-level µA741 deck: the cold bias
// solve (symbolic analysis + first factorization + the full homotopy) vs
// the plan-reused re-solve a parameter-sweep sample pays.
//
// The workload is the acceptance scenario: tools/data/ua741_npn.cir, a
// 24-junction bias problem whose every Newton iteration after the first
// replays ONE shared factorization plan. A re-solve on a warm OpSolver
// (what run_param_sweep's lanes do per sample) skips even that first
// factorization — the whole solve is rebind+refactor replays.
//
// Emitted rows (BENCH_refgen.json via --json <path>):
//   op_cold_solve_ms            fresh OpSolver: plan recorded + homotopy
//   op_replay_solve_ms          warm OpSolver: every iterate replays the plan
//   op_speedup_replay_vs_cold   ratio of the two
//   op_newton_iterations        cold-solve iteration count (homotopy total)
//   op_fresh_factorizations     plan probe (1 = one shared plan end to end)
//   op_compile_linearized_ms    api compile: bias + linearize + canonicalize
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "api/service.h"
#include "dc/newton.h"
#include "netlist/parser.h"
#include "support/bench_json.h"
#include "support/cli.h"
#include "support/timer.h"

namespace {

std::map<std::string, double> json_metrics;

const std::string& deck_text() {
  static const std::string text = [] {
    const std::string path =
        std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741_npn.cir";
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }();
  return text;
}

void measure() {
  using symref::support::Timer;

  const symref::netlist::Circuit deck = symref::netlist::parse_netlist(deck_text());
  if (!deck.has_devices()) {
    std::fprintf(stderr, "deck did not parse with devices\n");
    return;
  }

  std::printf("=== µA741 transistor-level .op (24 junctions) ===\n\n");

  // Cold: a fresh solver records the Jacobian plan on iteration one and
  // replays it for the rest of the homotopy. Best of a few runs to shake
  // out first-touch noise.
  double cold_ms = 1e300;
  symref::dc::OpResult cold;
  for (int rep = 0; rep < 5; ++rep) {
    symref::dc::OpSolver solver;
    Timer timer;
    cold = solver.solve(deck);
    const double ms = timer.millis();
    if (ms < cold_ms) cold_ms = ms;
  }

  // Replay: the same solver re-biases the same pattern — what every
  // parameter-sweep sample costs after the baseline solve.
  symref::dc::OpSolver warm;
  (void)warm.solve(deck);
  double replay_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    const symref::dc::OpResult again = warm.solve(deck);
    const double ms = timer.millis();
    if (ms < replay_ms) replay_ms = ms;
    if (again.fresh_factorizations != 0) {
      std::fprintf(stderr, "warm re-solve took a fresh factorization\n");
    }
  }

  std::printf("cold solve (plan recorded):   %8.3f ms  (%d Newton iterations, "
              "%llu fresh factorization%s)\n",
              cold_ms, cold.newton_iterations,
              static_cast<unsigned long long>(cold.fresh_factorizations),
              cold.fresh_factorizations == 1 ? "" : "s");
  std::printf("replayed re-solve (warm plan): %8.3f ms\n", replay_ms);
  std::printf("replay vs cold:                %8.2fx\n\n", cold_ms / replay_ms);

  json_metrics["op_cold_solve_ms"] = cold_ms;
  json_metrics["op_replay_solve_ms"] = replay_ms;
  json_metrics["op_speedup_replay_vs_cold"] = cold_ms / replay_ms;
  json_metrics["op_newton_iterations"] = static_cast<double>(cold.newton_iterations);
  json_metrics["op_fresh_factorizations"] =
      static_cast<double>(cold.fresh_factorizations);

  // The api-level cost a caller actually pays: compile = parse + bias +
  // linearize + canonicalize + nodal system, after which every AC-family
  // request runs on the small-signal circuit.
  const symref::api::Service service;
  Timer compile_timer;
  const auto handle = service.compile_netlist(deck_text());
  const double compile_ms = compile_timer.millis();
  if (!handle.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", handle.status().to_string().c_str());
    return;
  }
  std::printf("api compile (bias + linearized AC ready): %8.3f ms\n\n", compile_ms);
  json_metrics["op_compile_linearized_ms"] = compile_ms;
}

void BM_OpColdSolve(benchmark::State& state) {
  const symref::netlist::Circuit deck = symref::netlist::parse_netlist(deck_text());
  for (auto _ : state) {
    symref::dc::OpSolver solver;
    const symref::dc::OpResult op = solver.solve(deck);
    benchmark::DoNotOptimize(op.newton_iterations);
  }
}
BENCHMARK(BM_OpColdSolve)->Unit(benchmark::kMillisecond);

void BM_OpReplaySolve(benchmark::State& state) {
  const symref::netlist::Circuit deck = symref::netlist::parse_netlist(deck_text());
  symref::dc::OpSolver solver;
  (void)solver.solve(deck);
  for (auto _ : state) {
    const symref::dc::OpResult op = solver.solve(deck);
    benchmark::DoNotOptimize(op.newton_iterations);
  }
}
BENCHMARK(BM_OpReplaySolve)->Unit(benchmark::kMillisecond);

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
