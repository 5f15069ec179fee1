// Plan-replay economics of the transient engine, and its determinism under
// concurrency knobs and injected faults.
//
// The contract under test: every time step is a rebind + refactor replay of
// one plan per step-size bucket, so a constant-step run performs exactly
// three fresh factorizations (DC bias + consistent-init micro-step + the one
// bucket) no matter how many steps it takes; adaptive runs account every
// fresh factorization to a bucket (fresh == buckets + 2); the serialized
// response is byte-identical at any thread count; and refused replays
// (REFGEN_FAULT=lu_pivot / newton_step) fall back to fresh factorizations
// that re-select the same pivots — slower, bit-identical waveforms.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/serialize.h"
#include "api/service.h"
#include "netlist/parser.h"
#include "support/fault_injection.h"
#include "transient/transient.h"

namespace symref {
namespace {

constexpr const char* kRcNetlist =
    "* rc step\n"
    "vin in 0 dc 10\n"
    "r1 in out 1k\n"
    "c1 out 0 1u\n"
    ".ic v(out)=0\n"
    ".end\n";

constexpr const char* kRectifierNetlist =
    "* half-wave rectifier\n"
    ".model dfast d is=1e-14 n=1\n"
    "vin in 0 dc 0 sin(0 5 1k)\n"
    "r1 in out 1k\n"
    "d1 out 0 dfast\n"
    ".end\n";

transient::TransientOptions fixed_step(double tstop, double tstep) {
  transient::TransientOptions o;
  o.tstop = tstop;
  o.tstep = tstep;
  o.adaptive = false;
  return o;
}

/// Bitwise waveform comparison: the replay contract is exact equality of
/// every state value, not closeness.
void expect_states_identical(const transient::TransientResult& a,
                             const transient::TransientResult& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t k = 0; k < a.states.size(); ++k) {
    ASSERT_EQ(a.states[k].size(), b.states[k].size()) << "point " << k;
    EXPECT_EQ(a.times[k], b.times[k]) << "point " << k;
    for (std::size_t i = 0; i < a.states[k].size(); ++i) {
      EXPECT_EQ(a.states[k][i], b.states[k][i])
          << "point " << k << ", unknown " << i;
    }
  }
}

std::uint64_t injected_count(const char* site) {
  for (const auto& stats : support::FaultInjector::instance().stats()) {
    if (stats.site == site) return stats.injected;
  }
  return 0;
}

/// Process-global injector: every test starts and ends disarmed.
class TransientReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }
};

// --- Plan-replay accounting ------------------------------------------------

TEST_F(TransientReplayTest, ThousandStepConstantRunReusesOnePlan) {
  const netlist::Circuit c = netlist::parse_netlist(kRcNetlist);
  const transient::TransientResult r =
      transient::solve_transient(c, fixed_step(1e-3, 1e-6));
  ASSERT_EQ(r.steps, 1000);
  EXPECT_EQ(r.step_size_buckets, 1);
  // Bias plan + consistent-init plan + one bucket plan; 999 of the 1000
  // steps are pure replays.
  EXPECT_EQ(r.fresh_factorizations, 3u);
  EXPECT_EQ(r.lte_rejections, 0);
}

TEST_F(TransientReplayTest, NonlinearConstantRunStillFactorsOncePerBucket) {
  // Newton re-stamps the Jacobian every iterate, but the pattern is fixed:
  // every iterate after the bucket's first factorization is a replay.
  const netlist::Circuit c = netlist::parse_netlist(kRectifierNetlist);
  const transient::TransientResult r =
      transient::solve_transient(c, fixed_step(2e-3, 2e-6));
  ASSERT_EQ(r.steps, 1000);
  EXPECT_GT(r.newton_iterations, r.steps);
  EXPECT_EQ(r.step_size_buckets, 1);
  // A memoryless circuit skips the consistent-initialization micro-step, so
  // the budget is bias + one bucket (vs bias + init + bucket for reactive
  // circuits).
  EXPECT_EQ(r.fresh_factorizations, 2u);
}

TEST_F(TransientReplayTest, AdaptiveRunAccountsEveryFreshFactorizationToABucket) {
  netlist::Circuit c;
  c.add_capacitor("c1", "top", "0", 1e-6);
  c.add_resistor("r1", "top", "mid", 10.0);
  c.add_inductor("l1", "mid", "0", 1e-3);
  c.set_initial_condition("top", 1.0);
  transient::TransientOptions o;
  o.tstop = 1e-3;
  o.tstep = 1e-5;
  o.adaptive = true;
  const transient::TransientResult r = transient::solve_transient(c, o);
  EXPECT_GE(r.step_size_buckets, 1);
  // Dyadic step buckets: each is planned exactly once, and nothing else
  // factors fresh beyond the bias and consistent-init plans.
  EXPECT_EQ(r.fresh_factorizations,
            static_cast<std::uint64_t>(r.step_size_buckets) + 2u);
}

// --- Determinism across execution knobs ------------------------------------

/// Response JSON with wall-clock fields removed — everything else must be
/// bit-identical across runs.
api::Json strip_timing(const api::Json& value) {
  if (!value.is_object()) return value;
  api::Json out = api::Json::object();
  for (const auto& [key, member] : value.members()) {
    if (key == "seconds" || key == "engine_seconds") continue;
    out.set(key, strip_timing(member));
  }
  return out;
}

TEST_F(TransientReplayTest, SerializedResponseIsByteIdenticalAcrossHandles) {
  const api::Service service;
  std::string baseline;
  for (int run = 0; run < 3; ++run) {
    auto compiled = service.compile_netlist(kRectifierNetlist);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    api::TransientRequest request;
    request.tstop = 1e-3;
    request.tstep = 2e-6;
    request.adaptive = false;
    auto response = service.transient(compiled.value(), request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_FALSE(response.value().from_cache);
    const std::string text = strip_timing(api::to_json(response.value())).dump();
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "run " << run;
    }
  }
}

// --- Fault ride-out ---------------------------------------------------------

TEST_F(TransientReplayTest, LuPivotFaultsRideOutBitIdentically) {
  const netlist::Circuit c = netlist::parse_netlist(kRcNetlist);
  const transient::TransientResult clean =
      transient::solve_transient(c, fixed_step(1e-3, 1e-6));

  // Every plan replay refused: each step falls back to a fresh
  // factorization, which re-selects the same pivots — the waveform must be
  // bit-identical, only the factorization count grows.
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const transient::TransientResult faulty =
      transient::solve_transient(c, fixed_step(1e-3, 1e-6));
  EXPECT_GT(injected_count("lu_pivot"), 0u);
  EXPECT_GT(faulty.fresh_factorizations, clean.fresh_factorizations);
  expect_states_identical(clean, faulty);
}

TEST_F(TransientReplayTest, NewtonStepFaultsRideOutBitIdentically) {
  const netlist::Circuit c = netlist::parse_netlist(kRectifierNetlist);
  const transient::TransientResult clean =
      transient::solve_transient(c, fixed_step(1e-3, 2e-6));

  ASSERT_TRUE(support::FaultInjector::instance().configure("newton_step:1"));
  const transient::TransientResult faulty =
      transient::solve_transient(c, fixed_step(1e-3, 2e-6));
  EXPECT_GT(injected_count("newton_step"), 0u);
  EXPECT_GT(faulty.fresh_factorizations, clean.fresh_factorizations);
  EXPECT_EQ(faulty.newton_iterations, clean.newton_iterations);
  expect_states_identical(clean, faulty);
}

TEST_F(TransientReplayTest, IntermittentPivotFaultsAreRiddenOutDeterministically) {
  // Half the replays refused with a fixed seed: chaos that reproduces.
  const netlist::Circuit c = netlist::parse_netlist(kRcNetlist);
  const transient::TransientResult clean =
      transient::solve_transient(c, fixed_step(1e-3, 1e-6));
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:0.5:11"));
  const transient::TransientResult faulty =
      transient::solve_transient(c, fixed_step(1e-3, 1e-6));
  EXPECT_GT(faulty.fresh_factorizations, clean.fresh_factorizations);
  EXPECT_LT(faulty.fresh_factorizations, static_cast<std::uint64_t>(faulty.steps));
  expect_states_identical(clean, faulty);
}

TEST_F(TransientReplayTest, FaultedServiceResponseSerializesTheSameWaveform) {
  // End-to-end: the wire payload's point array survives a full lu_pivot
  // blackout unchanged (telemetry rows may differ; the waveform may not).
  const api::Service service;
  api::TransientRequest request;
  request.tstop = 1e-3;
  request.tstep = 1e-6;
  request.adaptive = false;

  auto clean_handle = service.compile_netlist(kRcNetlist);
  ASSERT_TRUE(clean_handle.ok());
  auto clean = service.transient(clean_handle.value(), request);
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();

  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  auto faulty_handle = service.compile_netlist(kRcNetlist);
  ASSERT_TRUE(faulty_handle.ok());
  auto faulty = service.transient(faulty_handle.value(), request);
  ASSERT_TRUE(faulty.ok()) << faulty.status().to_string();

  const api::Json clean_json = api::to_json(clean.value());
  const api::Json faulty_json = api::to_json(faulty.value());
  ASSERT_NE(clean_json.find("points"), nullptr);
  ASSERT_NE(faulty_json.find("points"), nullptr);
  EXPECT_EQ(clean_json.find("points")->dump(), faulty_json.find("points")->dump());

  // Caches stay healthy once the fault clears: repeat is a cache hit.
  support::FaultInjector::instance().reset();
  auto repeat = service.transient(faulty_handle.value(), request);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().from_cache);
}

}  // namespace
}  // namespace symref
