// api::JobManager: async submit/poll/wait/cancel/list semantics, the
// cooperative cancellation contract (queued and mid-iteration), and the
// promise that cancellation never poisons a handle's caches.
#include "api/jobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "circuits/ua741.h"

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

CircuitHandle compile(const Service& service, const char* netlist) {
  auto compiled = service.compile_netlist(netlist);
  EXPECT_TRUE(compiled.ok()) << compiled.status().to_string();
  return compiled.take();
}

TEST(JobManager, SubmitWaitDeliversTheResponse) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);

  const JobId id = jobs.submit(handle, rc_refgen());
  ASSERT_NE(id, 0u);
  const auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  ASSERT_TRUE(outcome.value().status.ok()) << outcome.value().status.to_string();
  EXPECT_EQ(outcome.value().type, AnyRequest::Type::kRefgen);
  EXPECT_TRUE(outcome.value().refgen.result.complete);

  const auto info = jobs.poll(id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, JobState::kDone);
  EXPECT_GT(info.value().iterations, 0);
  EXPECT_FALSE(info.value().cancel_requested);
}

TEST(JobManager, SimplifyJobDeliversCertifiedResponse) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);

  AnyRequest request;
  request.type = AnyRequest::Type::kSimplify;
  request.simplify.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.simplify.options.f_start_hz = 10.0;
  request.simplify.options.f_stop_hz = 1e5;
  request.simplify.options.band_points = 5;

  const JobId id = jobs.submit(handle, std::move(request));
  const auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  ASSERT_TRUE(outcome.value().status.ok()) << outcome.value().status.to_string();
  EXPECT_EQ(outcome.value().type, AnyRequest::Type::kSimplify);
  const auto& result = outcome.value().simplify.result;
  EXPECT_LE(result.certificate.max_relative_error, 0.01);
  EXPECT_GT(result.kept_terms, 0u);
  EXPECT_EQ(to_json(outcome.value()).find("type")->as_string(), "simplify");
}

TEST(JobManager, ProgressAndDoneCallbacksFire) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);

  std::atomic<int> progress_events{0};
  std::atomic<int> done_events{0};
  JobId done_id = 0;
  SubmitOptions options;
  options.on_progress = [&](JobId, const refgen::IterationRecord& record) {
    EXPECT_GT(record.points, 0);
    progress_events.fetch_add(1);
  };
  options.on_done = [&](JobId job, const JobOutcome& outcome) {
    done_id = job;
    EXPECT_TRUE(outcome.status.ok());
    done_events.fetch_add(1);
  };
  const JobId id = jobs.submit(handle, rc_refgen(), std::move(options));
  const auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  // wait() releases only after on_done returned — no race to tolerate.
  EXPECT_EQ(done_events.load(), 1);
  EXPECT_EQ(done_id, id);
  EXPECT_EQ(progress_events.load(),
            static_cast<int>(outcome.value().refgen.result.iterations.size()));
}

TEST(JobManager, UnknownIdsPollWaitAsNotFound) {
  const Service service;
  JobManager jobs(service, 1);
  EXPECT_EQ(jobs.poll(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(jobs.wait(12345).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(jobs.cancel(12345));
}

TEST(JobManager, InvalidHandleCompletesAsInvalidArgument) {
  const Service service;
  JobManager jobs(service, 1);
  const JobId id = jobs.submit(CircuitHandle(), rc_refgen());
  const auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kInvalidArgument);
}

// A queued job cancelled before any worker picks it up completes as
// kCancelled immediately — deterministic: the single worker is parked
// inside a job whose observer blocks until the test releases it.
TEST(JobManager, CancelQueuedJobCompletesImmediately) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);
  JobManager jobs(service, 1);

  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  AnyRequest blocker = rc_refgen();
  blocker.refgen.options.on_iteration = [&](const refgen::IterationRecord&) {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  const JobId blocking = jobs.submit(handle, blocker);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; }));
  }

  const JobId queued = jobs.submit(handle, rc_refgen());
  ASSERT_EQ(jobs.poll(queued).value().state, JobState::kQueued);
  EXPECT_TRUE(jobs.cancel(queued));
  const auto cancelled = jobs.wait(queued);  // already done: returns at once
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled.value().status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(jobs.poll(queued).value().cancel_requested);
  // Cancelling a done job reports false.
  EXPECT_FALSE(jobs.cancel(queued));

  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  const auto blocked_outcome = jobs.wait(blocking);
  ASSERT_TRUE(blocked_outcome.ok());
  EXPECT_TRUE(blocked_outcome.value().status.ok());
}

// The cancellation satellite: a job cancelled mid-iteration stops promptly
// with kCancelled, and the handle's caches serve subsequent requests
// untouched.
TEST(JobManager, CancelMidIterationStopsPromptlyAndKeepsCachesUsable) {
  const Service service;
  const auto compiled = service.compile(circuits::ua741(), "ua741");
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();
  JobManager jobs(service, 1);

  AnyRequest request;
  request.type = AnyRequest::Type::kRefgen;
  request.refgen.spec = circuits::ua741_gain_spec();

  // Cancel from inside the progress stream after the second iteration: the
  // engine observes the token at the next iteration boundary. The observer
  // blocks until the test has published the job id, so the cancel targets
  // the right job deterministically.
  std::atomic<int> iterations_seen{0};
  JobManager* manager = &jobs;
  std::mutex mutex;
  std::condition_variable cv;
  JobId self = 0;
  bool have_id = false;
  SubmitOptions options;
  options.on_progress = [&](JobId, const refgen::IterationRecord& record) {
    iterations_seen.fetch_add(1);
    if (record.index == 1) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return have_id; });
      const JobId target = self;
      lock.unlock();
      manager->cancel(target);
    }
  };
  const JobId id = jobs.submit(handle, request, std::move(options));
  {
    const std::lock_guard<std::mutex> lock(mutex);
    self = id;
    have_id = true;
  }
  cv.notify_all();

  const auto outcome = jobs.wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status.code(), StatusCode::kCancelled);
  // Stopped promptly: the checkpoint right after the cancelling iteration,
  // nowhere near the ~12 iterations a full µA741 run takes.
  EXPECT_LE(iterations_seen.load(), 3);

  // The handle still serves: the same request (fresh, uncancelled) runs to
  // completion on the warm handle, and so does a sweep.
  const auto direct = service.refgen(handle, {circuits::ua741_gain_spec(), {}});
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();
  EXPECT_TRUE(direct.value().result.complete);
  SweepRequest sweep;
  sweep.spec = circuits::ua741_gain_spec();
  sweep.f_start_hz = 1.0;
  sweep.f_stop_hz = 1e6;
  sweep.points_per_decade = 3;
  EXPECT_TRUE(service.sweep(handle, sweep).ok());
}

// Sweep jobs observe the token per point (through AcSimulator::bode).
TEST(JobManager, CancelledSweepReportsCancelledAndSimulatorSurvives) {
  const Service service;
  const CircuitHandle handle = compile(service, kRcNetlist);

  SweepRequest request;
  request.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.f_start_hz = 1.0;
  request.f_stop_hz = 1e6;
  request.points_per_decade = 4;
  support::CancellationSource source;
  source.cancel();
  request.cancel = source.token();
  const auto cancelled = service.sweep(handle, request);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  request.cancel = support::CancellationToken();
  const auto clean = service.sweep(handle, request);
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  EXPECT_EQ(clean.value().points.size(), 25u);
}

TEST(JobManager, ListShowsSubmitOrderAndDestructorCancelsQueuedJobs) {
  std::atomic<int> done_count{0};
  {
    const Service service;
    const CircuitHandle handle = compile(service, kRcNetlist);
    JobManager jobs(service, 1);
    std::vector<JobId> ids;
    for (int i = 0; i < 5; ++i) {
      AnyRequest request = rc_refgen();
      request.refgen.options.sigma = 5 + i;  // distinct work per job
      SubmitOptions options;
      options.on_done = [&](JobId, const JobOutcome&) { done_count.fetch_add(1); };
      ids.push_back(jobs.submit(handle, request, std::move(options)));
    }
    const auto listed = jobs.list();
    ASSERT_EQ(listed.size(), 5u);
    for (std::size_t i = 1; i < listed.size(); ++i) {
      EXPECT_LT(listed[i - 1].id, listed[i].id);
    }
  }  // ~JobManager: cancels queued jobs, joins workers
  // Every job completed exactly once — naturally or as cancelled.
  EXPECT_EQ(done_count.load(), 5);
}

// execute() is the one map from a request to Service: every request type's
// cancellable slot receives the token, and the observer reaches exactly the
// types whose engine iterates, after any observer the request carries. The
// response cache is off, so every request runs its engine.
TEST(Execute, EveryRequestTypeGetsTheTokenAndTheObserver) {
  ServiceOptions service_options;
  service_options.cache_responses = false;
  const Service service(service_options);
  const CircuitHandle rc = compile(service, R"(
.title two-pole rc with a sweepable resistor
.param r2v=10k
R1 in  n1 1k
C1 n1  0  100n
R2 n1  out {r2v}
C2 out 0  10n
)");
  const CircuitHandle diode = compile(service, R"(
.title forward-biased diode
.model nd d is=1e-14
V1 in 0 dc 5
R1 in d 1k
D1 d 0 nd
C1 d 0 1n
)");
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("in", "out");

  std::vector<std::pair<CircuitHandle, AnyRequest>> runs(8);
  for (auto& [handle, request] : runs) handle = rc;
  runs[0].second.type = AnyRequest::Type::kRefgen;
  runs[0].second.refgen.spec = spec;
  runs[1].second.type = AnyRequest::Type::kSweep;
  runs[1].second.sweep.spec = spec;
  runs[1].second.sweep.f_stop_hz = 1e6;
  runs[1].second.sweep.points_per_decade = 4;
  runs[2].second.type = AnyRequest::Type::kPolesZeros;
  runs[2].second.poles_zeros.spec = spec;
  runs[3].second.type = AnyRequest::Type::kParamSweep;
  runs[3].second.param_sweep.spec = spec;
  runs[3].second.param_sweep.axes = {{"r2v", 5e3, 20e3, 3}};
  runs[3].second.param_sweep.f_stop_hz = 1e6;
  runs[4].second.type = AnyRequest::Type::kSimplify;
  runs[4].second.simplify.spec = spec;
  runs[4].second.simplify.options.f_stop_hz = 1e5;
  runs[4].second.simplify.options.band_points = 5;
  runs[5].second.type = AnyRequest::Type::kBatch;
  runs[5].second.batch.items = {{spec, {}}, {spec, {}}};
  runs[5].second.batch.items[1].options.sigma = 8;
  runs[6] = {diode, {}};
  runs[6].second.type = AnyRequest::Type::kOp;
  runs[7] = {diode, {}};
  runs[7].second.type = AnyRequest::Type::kTransient;
  runs[7].second.transient.tstop = 1e-6;

  support::CancellationSource tripped;
  tripped.cancel();
  for (const auto& [handle, request] : runs) {
    SCOPED_TRACE(request_type_name(request.type));
    int observed = 0;
    const JobOutcome cancelled =
        execute(service, handle, request, tripped.token(),
                [&](const refgen::IterationRecord&) { ++observed; });
    EXPECT_EQ(cancelled.type, request.type);
    if (request.type == AnyRequest::Type::kOp) {
      EXPECT_TRUE(cancelled.status.ok()) << cancelled.status.to_string();
    } else if (request.type == AnyRequest::Type::kBatch) {
      ASSERT_TRUE(cancelled.status.ok()) << cancelled.status.to_string();
      ASSERT_EQ(cancelled.batch.items.size(), 2u);
      for (const BatchItemResponse& item : cancelled.batch.items) {
        EXPECT_EQ(item.status.code(), StatusCode::kCancelled);
      }
    } else {
      EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
    }
  }

  const support::CancellationSource live;
  for (auto& [handle, request] : runs) {
    SCOPED_TRACE(request_type_name(request.type));
    std::string order;
    if (request.type == AnyRequest::Type::kRefgen) {
      request.refgen.options.on_iteration = [&](const refgen::IterationRecord&) {
        order += 'r';
      };
    }
    const JobOutcome outcome = execute(service, handle, request, live.token(),
                                       [&](const refgen::IterationRecord&) { order += 'e'; });
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    const auto observed = static_cast<std::size_t>(std::count(order.begin(), order.end(), 'e'));
    switch (request.type) {
      case AnyRequest::Type::kRefgen: {
        const std::size_t iterations = outcome.refgen.result.iterations.size();
        EXPECT_EQ(observed, iterations);
        std::string expected;
        for (std::size_t i = 0; i < iterations; ++i) expected += "re";
        EXPECT_EQ(order, expected);  // the request's own observer runs first
        break;
      }
      case AnyRequest::Type::kPolesZeros:
      case AnyRequest::Type::kSimplify: EXPECT_GE(observed, 1u); break;
      default: EXPECT_EQ(observed, 0u);
    }
  }
}

}  // namespace
}  // namespace symref::api
