// Fault-injection recovery: every injected fault yields a typed Status,
// recovery paths (fresh factorization, retry/backoff, deadline, shed-load,
// reference store) engage, and handle caches stay usable afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/jobs.h"
#include "api/protocol.h"
#include "api/serialize.h"
#include "api/service.h"
#include "circuits/ua741.h"
#include "netlist/writer.h"
#include "support/fault_injection.h"

namespace symref::api {
namespace {

constexpr const char* kRcNetlist = R"(
.title two-pole rc
R1 in  n1 1k
C1 n1  0  100n
R2 n1  out 10k
C2 out 0  10n
)";

AnyRequest rc_refgen() {
  AnyRequest request;
  request.type = AnyRequest::Type::kRefgen;
  request.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  return request;
}

CircuitHandle compile(const Service& service, const std::string& netlist) {
  auto compiled = service.compile_netlist(netlist);
  EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
  return compiled.take();
}

/// RC ladder big enough that its reference run takes hundreds of
/// milliseconds — deadline tests need a job that reliably outlives a
/// tens-of-milliseconds budget on any machine.
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

/// Response JSON with wall-clock fields removed — everything else must be
/// bit-identical between a clean run and a fault-injected one.
Json strip_timing(const Json& value) {
  if (!value.is_object()) return value;
  Json out = Json::object();
  for (const auto& [key, member] : value.members()) {
    if (key == "seconds" || key == "engine_seconds") continue;
    out.set(key, strip_timing(member));
  }
  return out;
}

std::uint64_t injected_count(const char* site) {
  for (const auto& stats : support::FaultInjector::instance().stats()) {
    if (stats.site == site) return stats.injected;
  }
  return 0;
}

/// Process-global injector: every test starts and ends disarmed.
class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }
};

TEST_F(FaultRecoveryTest, LuPivotFaultsFallBackToFreshFactorizationsBitIdentically) {
  const Service service;
  // Clean run first: the baseline reference.
  const CircuitHandle clean_handle = compile(service, kRcNetlist);
  auto clean = service.refgen(clean_handle, {rc_refgen().refgen});
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();

  // Same request with every plan replay refused: each point falls back to a
  // fresh factorization, which re-selects the same pivots — the result must
  // be bit-identical, just slower.
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_pivot:1"));
  const CircuitHandle faulty_handle = compile(service, kRcNetlist);
  auto faulty = service.refgen(faulty_handle, {rc_refgen().refgen});
  ASSERT_TRUE(faulty.ok()) << faulty.status().to_string();
  EXPECT_GT(injected_count("lu_pivot"), 0u);
  EXPECT_EQ(strip_timing(to_json(clean.value())).dump(),
            strip_timing(to_json(faulty.value())).dump());

  auto engine = service.engine_stats(faulty_handle);
  ASSERT_TRUE(engine.ok());
  EXPECT_GT(engine.value().fresh_factorizations, 0u);

  // Caches stay healthy once the fault clears: repeat is a cache hit.
  support::FaultInjector::instance().reset();
  auto repeat = service.refgen(faulty_handle, {rc_refgen().refgen});
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().from_cache);
}

TEST_F(FaultRecoveryTest, LuAllocFaultIsTypedUnavailableAndHandleRecovers) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_alloc:1"));
  auto failed = service.refgen(handle, {rc_refgen().refgen});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  support::FaultInjector::instance().reset();
  auto recovered = service.refgen(handle, {rc_refgen().refgen});
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(recovered.value().result.complete);
}

constexpr const char* kDiodeNetlist = R"(
.title forward-biased diode with an rc probe tap
.model nd d is=1e-14
V1 in 0 dc 5
R1 in d 1k
D1 d 0 nd
R2 d m 1k
C2 m 0 1n
)";

TEST_F(FaultRecoveryTest, NewtonStepFaultsFallBackToFreshFactorizationsAndOpStillConverges) {
  const Service service;
  // Clean baseline: the bias solves at compile time through ONE shared plan.
  const CircuitHandle clean = compile(service, kDiodeNetlist);
  auto clean_op = service.op(clean, {});
  ASSERT_TRUE(clean_op.ok()) << clean_op.status().to_string();
  EXPECT_EQ(clean_op.value().result.fresh_factorizations, 1u);

  // Every Newton plan replay refused: each iterate falls back to one fresh
  // factorization, and the solve must still land on the same operating
  // point — slower, not diverged.
  ASSERT_TRUE(support::FaultInjector::instance().configure("newton_step:1"));
  const CircuitHandle faulty = compile(service, kDiodeNetlist);
  auto faulty_op = service.op(faulty, {});
  ASSERT_TRUE(faulty_op.ok()) << faulty_op.status().to_string();
  EXPECT_GT(injected_count("newton_step"), 0u);

  const dc::OpResult& result = faulty_op.value().result;
  EXPECT_GT(result.fresh_factorizations, 1u);
  EXPECT_LT(result.max_residual, 1e-9);
  EXPECT_NEAR(result.voltage_of("d"), clean_op.value().result.voltage_of("d"), 1e-9);
  EXPECT_NEAR(result.voltage_of("in"), 5.0, 1e-12);

  auto engine = service.engine_stats(faulty);
  ASSERT_TRUE(engine.ok());
  EXPECT_GT(engine.value().fresh_factorizations, 1u);
  EXPECT_EQ(engine.value().op_solves, 1u);
  EXPECT_GT(engine.value().newton_iterations, 0u);

  // The linearized AC side is untouched by the Newton faults: the handle
  // serves analyses (and repeat .op calls come from the stored bias).
  support::FaultInjector::instance().reset();
  auto repeat = service.op(faulty, {});
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().from_cache);
  auto ac = service.refgen(faulty, {mna::TransferSpec::voltage_gain("d", "m"), {}});
  ASSERT_TRUE(ac.ok()) << ac.status().to_string();
  EXPECT_TRUE(ac.value().result.complete);
}

TEST_F(FaultRecoveryTest, IntermittentNewtonStepFaultsAreRiddenOutDeterministically) {
  // Half the replays refused with a fixed seed: chaos that reproduces. The
  // solve converges with a fresh-factor count strictly between the clean 1
  // and the all-refused iteration count.
  ASSERT_TRUE(support::FaultInjector::instance().configure("newton_step:0.5:11"));
  const Service service;
  const CircuitHandle handle = compile(service, kDiodeNetlist);
  auto op = service.op(handle, {});
  ASSERT_TRUE(op.ok()) << op.status().to_string();
  EXPECT_GT(op.value().result.fresh_factorizations, 1u);
  EXPECT_LT(op.value().result.fresh_factorizations,
            static_cast<std::uint64_t>(op.value().result.newton_iterations));
  EXPECT_LT(op.value().result.max_residual, 1e-9);
}

TEST_F(FaultRecoveryTest, JsonParseFaultIsTypedParseError) {
  ASSERT_TRUE(support::FaultInjector::instance().configure("json_parse:1"));
  auto parsed = Json::parse("{\"valid\": true}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  support::FaultInjector::instance().reset();
  EXPECT_TRUE(Json::parse("{\"valid\": true}").ok());
}

TEST_F(FaultRecoveryTest, WorkQueueFaultExhaustsRetriesWithTypedUnavailable) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);
  ASSERT_TRUE(support::FaultInjector::instance().configure("work_queue:1"));

  SubmitOptions options;
  options.max_attempts = 3;
  const JobId id = jobs.submit(handle, rc_refgen(), std::move(options));
  auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injected_count("work_queue"), 3u);  // one per attempt
  auto info = jobs.poll(id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().attempts, 3);

  // The manager (and the handle) keep working once the fault clears.
  support::FaultInjector::instance().reset();
  auto recovered = jobs.wait(jobs.submit(handle, rc_refgen()));
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().status.ok()) << recovered.value().status.to_string();
}

TEST_F(FaultRecoveryTest, RetryRidesOutIntermittentWorkQueueFaults) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);
  // Half the attempts fail, deterministically (fixed seed). With 20
  // attempts the fault cannot survive the retry budget.
  ASSERT_TRUE(support::FaultInjector::instance().configure("work_queue:0.5:11"));
  SubmitOptions options;
  options.max_attempts = 20;
  const JobId id = jobs.submit(handle, rc_refgen(), std::move(options));
  auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().status.ok()) << outcome.value().status.to_string();
  EXPECT_TRUE(outcome.value().refgen.result.complete);
}

// A retried job reports each iteration it ran once: every attempt runs a
// fresh copy of the request, so no attempt inherits the previous attempt's
// progress observer. Half the LU symbolic analyses fail (fixed seed), so the
// first attempt dies before its first iteration and the job is retried.
TEST_F(FaultRecoveryTest, RetriedJobReportsEachIterationOnce) {
  ServiceOptions service_options;
  service_options.max_cached_responses = 0;
  const Service service(service_options);
  const CircuitHandle handle = compile(service, ladder_netlist(3));
  JobManager jobs(service, 1);
  ASSERT_TRUE(support::FaultInjector::instance().configure("lu_alloc:0.5:8"));

  std::mutex mutex;
  std::map<int, int> reports;  // iteration index -> progress callbacks
  SubmitOptions options;
  options.max_attempts = 5;
  options.on_progress = [&](JobId, const refgen::IterationRecord& record) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++reports[record.index];
  };
  const JobId id = jobs.submit(handle, rc_refgen(), std::move(options));
  auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().status.ok()) << outcome.value().status.to_string();
  auto info = jobs.poll(id);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info.value().attempts, 2);

  const int iterations = static_cast<int>(outcome.value().refgen.result.iterations.size());
  EXPECT_EQ(info.value().iterations, iterations);
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(static_cast<int>(reports.size()), iterations);
  for (const auto& [index, count] : reports) EXPECT_EQ(count, 1) << "iteration " << index;
}

TEST_F(FaultRecoveryTest, QueuedJobDeadlineExpiresTyped) {
  const Service service;
  const CircuitHandle rc = compile(service, kRcNetlist);
  const CircuitHandle big = compile(service, ladder_netlist(600));
  JobManager jobs(service, 1);

  AnyRequest blocker;
  blocker.type = AnyRequest::Type::kRefgen;
  blocker.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  const JobId running = jobs.submit(big, std::move(blocker));

  // Queued behind the ladder job with a 10ms budget: expires before running.
  SubmitOptions options;
  options.deadline_ms = 10.0;
  const JobId queued = jobs.submit(rc, rc_refgen(), std::move(options));
  auto outcome = jobs.wait(queued);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kDeadlineExceeded);

  auto blocker_outcome = jobs.wait(running);
  ASSERT_TRUE(blocker_outcome.ok());
  EXPECT_TRUE(blocker_outcome.value().status.ok());
}

TEST_F(FaultRecoveryTest, RunningJobDeadlineTripsTheEngineCheckpoint) {
  const Service service;
  const CircuitHandle big = compile(service, ladder_netlist(600));
  JobManager jobs(service, 1);
  AnyRequest request;
  request.type = AnyRequest::Type::kRefgen;
  request.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  SubmitOptions options;
  options.deadline_ms = 25.0;  // far below the ladder's >500ms reference run
  const JobId id = jobs.submit(big, std::move(request), std::move(options));
  auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kDeadlineExceeded);

  // The handle is not poisoned: the same request completes without deadline.
  AnyRequest again;
  again.type = AnyRequest::Type::kRefgen;
  again.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  auto clean = jobs.wait(jobs.submit(big, std::move(again)));
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.value().status.ok()) << clean.value().status.to_string();
}

TEST_F(FaultRecoveryTest, BoundedQueueShedsLoadAsOverloaded) {
  const Service service;
  const CircuitHandle rc = compile(service, kRcNetlist);
  const CircuitHandle big = compile(service, netlist::write_netlist(circuits::ua741()));
  JobManager jobs(service, 1, /*max_queue_depth=*/1);

  AnyRequest blocker;
  blocker.type = AnyRequest::Type::kRefgen;
  blocker.refgen.spec = mna::TransferSpec::voltage_gain("inp", "vo", "inn");
  const JobId running = jobs.submit(big, std::move(blocker));
  // Give the worker a moment to pop the blocker off the queue.
  while (true) {
    auto info = jobs.poll(running);
    ASSERT_TRUE(info.ok());
    if (info.value().state != JobState::kQueued) break;
    std::this_thread::yield();
  }

  const JobId waiting = jobs.submit(rc, rc_refgen());  // fills the queue
  const JobId shed = jobs.submit(rc, rc_refgen());     // over the bound
  auto outcome = jobs.wait(shed);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kOverloaded);

  // Accepted work is unaffected by the shed job.
  auto accepted = jobs.wait(waiting);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted.value().status.ok());
  auto blocker_outcome = jobs.wait(running);
  ASSERT_TRUE(blocker_outcome.ok());
  EXPECT_TRUE(blocker_outcome.value().status.ok());
}

// --- Reference store through the protocol layer -----------------------------

namespace fs = std::filesystem;

std::vector<std::string> run_session(protocol::ServerCore& core, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  {
    protocol::Session session(core, std::make_shared<protocol::IostreamTransport>(in, out));
    session.serve();
  }
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

Json find_reply(const std::vector<std::string>& lines, int id) {
  for (const std::string& line : lines) {
    auto parsed = Json::parse(line);
    if (!parsed.ok()) continue;
    const Json* found = parsed.value().find("id");
    if (found != nullptr && found->is_number() && found->as_int() == id) {
      return parsed.take();
    }
  }
  return Json();
}

TEST_F(FaultRecoveryTest, StoreReplaysByteIdenticalAcrossServerCores) {
  const fs::path dir = fs::path(::testing::TempDir()) / "fault_recovery_store";
  fs::remove_all(dir);

  const std::string script =
      std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
      Json(std::string(kRcNetlist)).dump() + R"(}})" +
      "\n"
      R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen","spec":{"in":"in","out":"out"}}}})"
      "\n"
      R"({"id":3,"method":"wait","params":{"job_id":"j1"}})"
      "\n";

  protocol::ServerOptions options;
  options.workers = 1;
  options.store_dir = dir.string();

  // First core computes and persists.
  std::string first_result;
  {
    protocol::ServerCore core(options);
    ASSERT_NE(core.store(), nullptr);
    ASSERT_TRUE(core.store()->ok()) << core.store()->error();
    const auto lines = run_session(core, script);
    const Json submit = find_reply(lines, 2);
    ASSERT_TRUE(submit.find("result") != nullptr);
    EXPECT_TRUE(submit.find("result")->find("stored") == nullptr);
    const Json waited = find_reply(lines, 3);
    ASSERT_TRUE(waited.find("result") != nullptr);
    ASSERT_TRUE(waited.find("result")->find("result") != nullptr);
    first_result = waited.find("result")->find("result")->dump();
  }

  // Second core (a "restarted daemon") replays from the store, byte for
  // byte, and announces the hit in the submit reply.
  {
    protocol::ServerCore core(options);
    const auto lines = run_session(core, script);
    const Json submit = find_reply(lines, 2);
    ASSERT_TRUE(submit.find("result") != nullptr);
    const Json* stored = submit.find("result")->find("stored");
    ASSERT_TRUE(stored != nullptr);
    EXPECT_TRUE(stored->as_bool());
    const Json waited = find_reply(lines, 3);
    ASSERT_TRUE(waited.find("result") != nullptr);
    ASSERT_TRUE(waited.find("result")->find("result") != nullptr);
    EXPECT_EQ(waited.find("result")->find("result")->dump(), first_result);
    EXPECT_GT(core.store()->stats().hits, 0u);
  }

  // Different request parameters miss the store (distinct key).
  {
    protocol::ServerCore core(options);
    const std::string other =
        std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
        Json(std::string(kRcNetlist)).dump() + R"(}})" +
        "\n"
        R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen","spec":{"in":"in","out":"out"},"options":{"sigma":8}}}})"
        "\n"
        R"({"id":3,"method":"wait","params":{"job_id":"j1"}})"
        "\n";
    const auto lines = run_session(core, other);
    const Json submit = find_reply(lines, 2);
    ASSERT_TRUE(submit.find("result") != nullptr);
    EXPECT_TRUE(submit.find("result")->find("stored") == nullptr);
  }
  fs::remove_all(dir);
}

TEST_F(FaultRecoveryTest, StoreAndServiceCachesShareOneKeyRule) {
  // The reference store and the Service response caches both key on
  // request_key: they agree that a thread count or a legacy "kernel" member
  // changes nothing, and that one ulp of tuning_r is another request.
  const fs::path dir = fs::path(::testing::TempDir()) / "fault_recovery_store_threads";
  fs::remove_all(dir);
  protocol::ServerOptions options;
  options.workers = 1;
  options.store_dir = dir.string();

  const std::string nudged_r = Json(std::nextafter(0.5, 1.0)).dump();
  const std::vector<std::pair<std::string, bool>> cases = {
      {R"({"tuning_r":0.5,"threads":1})", false},
      {R"({"tuning_r":0.5,"threads":2})", true},
      {R"({"tuning_r":0.5,"threads":4,"kernel":"batched"})", true},
      {R"({"tuning_r":)" + nudged_r + "}", false},
  };
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  for (const auto& [request_options, shared] : cases) {
    SCOPED_TRACE(request_options);
    const std::string request = R"({"type":"refgen","spec":{"in":"in","out":"out"},"options":)" +
                                request_options + "}";
    protocol::ServerCore core(options);
    const auto lines = run_session(
        core, std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
                  Json(std::string(kRcNetlist)).dump() + "}}\n" +
                  R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":)" +
                  request + "}}\n" + R"({"id":3,"method":"wait","params":{"job_id":"j1"}})" +
                  "\n");
    const Json submit = find_reply(lines, 2);
    ASSERT_TRUE(submit.find("result") != nullptr);
    EXPECT_EQ(submit.find("result")->find("stored") != nullptr, shared);

    const Result<AnyRequest> parsed = request_from_json(Json::parse(request).take());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const auto response = service.refgen(handle, parsed.value().refgen);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response.value().from_cache, shared);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace symref::api
