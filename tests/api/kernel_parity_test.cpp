// Replay-path parity at the service boundary: every request type must
// return BIT-IDENTICAL responses on the automatic replay path (batched
// whenever the plan replays) and on the scalar oracle forced through
// sparse::testing::ScopedScalarReplay; the factorization counters of
// engine_stats must agree (including under injected lu_pivot faults — the
// REFGEN_FAULT=lu_pivot scenario), and a legacy "kernel" request member
// must parse and change nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "api/serialize.h"
#include "api/service.h"
#include "sparse/batched.h"
#include "support/fault_injection.h"

namespace symref::api {
namespace {

/// RC ladder with enough stages that refgen runs real interpolation batches
/// (the batched path's SoA groups actually fill).
std::string ladder_netlist(int stages) {
  std::ostringstream text;
  text << ".title rc ladder\n";
  std::string prev = "in";
  for (int i = 0; i < stages; ++i) {
    std::string node = "n";
    node += std::to_string(i);
    text << 'R' << i << ' ' << prev << ' ' << node << " 1k\n";
    text << 'C' << i << ' ' << node << " 0 1n\n";
    prev = node;
  }
  text << "Rload " << prev << " out 1k\nCload out 0 1n\n";
  return text.str();
}

constexpr const char* kParamNetlist = R"(
.title parameterized ladder
.param r=1k c=100n
R1 in n1 {r}
C1 n1 0 {c}
R2 n1 n2 {r}
C2 n2 0 {c}
R3 n2 out {r}
C3 out 0 {c}
)";

CircuitHandle compile(const Service& service, const std::string& netlist) {
  auto compiled = service.compile_netlist(netlist);
  EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
  return compiled.take();
}

/// Response JSON minus wall-clock fields — everything else must match.
Json strip_timing(const Json& value) {
  if (value.is_object()) {
    Json out = Json::object();
    for (const auto& [key, member] : value.members()) {
      if (key == "seconds" || key == "engine_seconds") continue;
      out.set(key, strip_timing(member));
    }
    return out;
  }
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& item : value.items()) out.push_back(strip_timing(item));
    return out;
  }
  return value;
}

mna::TransferSpec ladder_spec() { return mna::TransferSpec::voltage_gain("in", "out"); }

/// `call()` with every replay forced onto the scalar oracle path.
template <typename Call>
auto on_scalar_path(Call call) {
  const sparse::testing::ScopedScalarReplay force_scalar;
  return call();
}

/// Process-global injector: every test starts and ends disarmed.
class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }
};

TEST_F(KernelParityTest, RefgenResponseAndEngineStatsMatch) {
  const std::string netlist = ladder_netlist(12);
  const RefgenRequest request{ladder_spec(), {}};

  const Service scalar_service;
  const CircuitHandle scalar_handle = compile(scalar_service, netlist);
  const auto scalar = on_scalar_path([&] { return scalar_service.refgen(scalar_handle, request); });
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();

  const Service service;
  const CircuitHandle handle = compile(service, netlist);
  const auto automatic = service.refgen(handle, request);
  ASSERT_TRUE(automatic.ok()) << automatic.status().to_string();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(automatic.value())).dump());

  const auto scalar_stats = scalar_service.engine_stats(scalar_handle);
  const auto stats = service.engine_stats(handle);
  ASSERT_TRUE(scalar_stats.ok());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(scalar_stats.value().fresh_factorizations, stats.value().fresh_factorizations);
  // The lane counter is the one legitimate difference: it counts points
  // actually routed through SoA lanes.
  EXPECT_EQ(scalar_stats.value().batched_lanes, 0u);
  EXPECT_GT(stats.value().batched_lanes, 0u);
}

TEST_F(KernelParityTest, SweepResponsesMatchAtEveryThreadCount) {
  const std::string netlist = ladder_netlist(10);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SweepRequest request;
    request.spec = ladder_spec();
    request.f_start_hz = 10.0;
    request.f_stop_hz = 1e8;
    request.points_per_decade = 12;
    request.threads = threads;

    const Service scalar_service;
    const auto scalar = on_scalar_path(
        [&] { return scalar_service.sweep(compile(scalar_service, netlist), request); });
    ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
    const Service service;
    const auto automatic = service.sweep(compile(service, netlist), request);
    ASSERT_TRUE(automatic.ok()) << automatic.status().to_string();
    EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
              strip_timing(to_json(automatic.value())).dump());
  }
}

TEST_F(KernelParityTest, ParamSweepResponsesAndPlanEconomicsMatch) {
  ParamSweepRequest request;
  request.spec = ladder_spec();
  request.mode = ParamSweepRequest::Mode::kGrid;
  request.axes = {{"r", 500.0, 2000.0, 5, false}, {"c", 50e-9, 200e-9, 3, true}};
  request.f_start_hz = 10.0;
  request.f_stop_hz = 1e6;
  request.points_per_decade = 4;

  const Service scalar_service;
  const auto scalar = on_scalar_path(
      [&] { return scalar_service.param_sweep(compile(scalar_service, kParamNetlist), request); });
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();
  const Service service;
  const auto automatic = service.param_sweep(compile(service, kParamNetlist), request);
  ASSERT_TRUE(automatic.ok()) << automatic.status().to_string();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(automatic.value())).dump());
  // The headline plan-reuse economics must not change with the replay path.
  EXPECT_EQ(scalar.value().result.fresh_factorizations,
            automatic.value().result.fresh_factorizations);
}

TEST_F(KernelParityTest, InjectedLuPivotFaultsKeepPathsIdentical) {
  // REFGEN_FAULT=lu_pivot scenario: every replay refused, every point falls
  // back to a fresh factorization. Both paths draw the fault site once per
  // point, so responses AND the factorization counters stay identical.
  const std::string netlist = ladder_netlist(8);
  const RefgenRequest request{ladder_spec(), {}};

  const Service scalar_service;
  const CircuitHandle scalar_handle = compile(scalar_service, netlist);
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const auto scalar = on_scalar_path([&] { return scalar_service.refgen(scalar_handle, request); });
  support::FaultInjector::instance().reset();
  ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();

  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const Service service;
  const CircuitHandle handle = compile(service, netlist);
  const auto automatic = service.refgen(handle, request);
  ASSERT_TRUE(automatic.ok()) << automatic.status().to_string();
  support::FaultInjector::instance().reset();

  EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
            strip_timing(to_json(automatic.value())).dump());
  const auto scalar_stats = scalar_service.engine_stats(scalar_handle);
  const auto stats = service.engine_stats(handle);
  ASSERT_TRUE(scalar_stats.ok());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(scalar_stats.value().fresh_factorizations, 0u);
  EXPECT_EQ(scalar_stats.value().fresh_factorizations, stats.value().fresh_factorizations);
}

TEST_F(KernelParityTest, EveryFallbackFactorizationIsCounted) {
  // Under lu_pivot:1 every replay is refused, so every evaluated point —
  // the first of each batch on the caller and every other point on a pool
  // lane — runs exactly one fresh factorization, and engine_stats counts
  // each of them at every thread count and on both kernels.
  const std::string netlist = ladder_netlist(12);
  for (const int threads : {1, 3}) {
    for (const bool scalar : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " scalar=" << scalar);
      RefgenRequest request{ladder_spec(), {}};
      request.options.threads = threads;
      const Service service;
      const CircuitHandle handle = compile(service, netlist);
      ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
      const auto response = scalar ? on_scalar_path([&] { return service.refgen(handle, request); })
                                   : service.refgen(handle, request);
      support::FaultInjector::instance().reset();
      ASSERT_TRUE(response.ok()) << response.status().to_string();
      const auto stats = service.engine_stats(handle);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().fresh_factorizations,
                static_cast<std::uint64_t>(response.value().result.total_evaluations));
      EXPECT_EQ(response.value().result.total_evaluations, 87);
    }
  }
}

TEST_F(KernelParityTest, InjectedLuPivotFaultsKeepSweepPathsIdentical) {
  // Every sweep point but the first falls back on its pool lane. A faulted
  // sweep may differ from a clean one (each point's fresh Markowitz pass
  // may pick other pivots), so the two replay paths are compared with each
  // other, both faulted.
  const std::string netlist = ladder_netlist(10);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SweepRequest request;
    request.spec = ladder_spec();
    request.f_start_hz = 10.0;
    request.f_stop_hz = 1e8;
    request.points_per_decade = 12;
    request.threads = threads;

    const Service scalar_service;
    const CircuitHandle scalar_handle = compile(scalar_service, netlist);
    ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
    const auto scalar =
        on_scalar_path([&] { return scalar_service.sweep(scalar_handle, request); });
    support::FaultInjector::instance().reset();
    ASSERT_TRUE(scalar.ok()) << scalar.status().to_string();

    const Service service;
    const CircuitHandle handle = compile(service, netlist);
    ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
    const auto automatic = service.sweep(handle, request);
    support::FaultInjector::instance().reset();
    ASSERT_TRUE(automatic.ok()) << automatic.status().to_string();
    EXPECT_EQ(strip_timing(to_json(scalar.value())).dump(),
              strip_timing(to_json(automatic.value())).dump());
  }
}

TEST_F(KernelParityTest, LegacyKernelMemberParsesAndNamesTheSameEntry) {
  // Request files written when the replay kernel was a request knob still
  // parse; the member is ignored, so every spelling hits one cache entry.
  const Service service;
  const CircuitHandle handle = compile(service, ladder_netlist(6));
  bool cold = true;
  for (const char* kernel : {"", R"(,"kernel":"scalar")", R"(,"kernel":"batched")"}) {
    SCOPED_TRACE(kernel);
    const Result<Json> json =
        Json::parse(std::string(R"({"type":"refgen","spec":{"in":"in","out":"out"},)") +
                    R"("options":{"sigma":6)" + kernel + "}}");
    ASSERT_TRUE(json.ok()) << json.status().to_string();
    const Result<AnyRequest> parsed = request_from_json(json.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const auto response = service.refgen(handle, parsed.value().refgen);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response.value().from_cache, !cold);
    cold = false;
  }
}

}  // namespace
}  // namespace symref::api
