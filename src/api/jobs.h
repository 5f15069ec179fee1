// Request execution over api::Service — the core of the served protocol.
//
// execute() is the one map from a typed request (refgen / sweep /
// poles_zeros / batch / param_sweep / simplify / op / transient) to its
// Service method. JobManager runs it on a fixed-size worker pool
// (support::WorkQueue) and adds queueing, retries and deadlines: submit()
// returns a JobId immediately, and the caller then polls, waits, or
// subscribes:
//
//   JobManager jobs(service, /*workers=*/4);
//   SubmitOptions options;  // on_progress, on_done, deadline_ms, max_attempts
//   options.on_progress = [](JobId id, const refgen::IterationRecord& record) {...};
//   JobId id = jobs.submit(handle, request, std::move(options));
//   ... jobs.poll(id) -> JobInfo{state, iterations so far, ...}
//   ... jobs.wait(id) -> JobOutcome{status, typed response}
//   ... jobs.cancel(id)
//
// Cancellation is cooperative and safe at any moment: a queued job
// completes immediately with kCancelled (it never runs); a running job's
// cancellation token trips the engine's per-iteration / per-point
// checkpoints and the job completes with kCancelled shortly after. The
// handle's plan and response caches remain valid either way — cancelling
// one request never poisons the next. A job holds its handle only until it
// finishes: a retained job keeps its outcome and circuit label, never the
// compiled circuit, so evicting a circuit frees it whatever the job history.
//
// Callback contract: on_progress fires on the worker thread running the job
// with the engine's own IterationRecord (once per engine iteration; refgen,
// poles_zeros and simplify only); on_done fires exactly once per job, on
// whichever thread completes it (a worker, or the cancel() caller for
// still-queued jobs). Callbacks must be fast and must not call back into
// wait() for their own job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/serialize.h"
#include "api/service.h"
#include "support/cancellation.h"
#include "support/thread_pool.h"

namespace symref::api {

/// Monotonically increasing per-manager id; 0 is never assigned.
using JobId = std::uint64_t;

enum class JobState { kQueued, kRunning, kDone };

/// Stable snake_case token ("queued", "running", "done") — the wire value.
const char* job_state_name(JobState state) noexcept;

/// Terminal result of a job: the job-level status plus the response of the
/// request's type (only the matching member is meaningful, and only when
/// status.ok()). A cancelled job carries kCancelled here; a job whose
/// deadline expired carries kDeadlineExceeded.
struct JobOutcome {
  Status status;
  AnyRequest::Type type = AnyRequest::Type::kRefgen;
  RefgenResponse refgen;
  SweepResponse sweep;
  PolesZerosResponse poles_zeros;
  BatchResponse batch;
  ParamSweepResponse param_sweep;
  SimplifyResponse simplify;
  OpResponse op;
  TransientResponse transient;
  /// Pre-serialized wire payload (submit_stored: a reference-store hit).
  /// When non-null and status is ok, to_json returns it verbatim — the
  /// stored bytes ARE the contract (byte-identical replay across restarts).
  Json raw;
};

/// Wire form of an outcome: the typed response envelope on success, the
/// uniform {"type", "status"} error payload otherwise.
Json to_json(const JobOutcome& outcome);

/// Runs one request against `handle`: the only map from a request type to
/// its Service method. `cancel` replaces the token of every cancellable
/// slot — the engine options of refgen, poles_zeros, simplify and each batch
/// item, and sweep, param_sweep and transient. `on_iteration` runs after
/// any observer the request already carries, for refgen, poles_zeros and
/// simplify. The request is taken by value, so the caller's copy is never
/// wired.
JobOutcome execute(const Service& service, const CircuitHandle& handle, AnyRequest request,
                   const support::CancellationToken& cancel,
                   const refgen::ProgressObserver& on_iteration);

/// Point-in-time job snapshot (poll / list).
struct JobInfo {
  JobId id = 0;
  JobState state = JobState::kQueued;
  AnyRequest::Type type = AnyRequest::Type::kRefgen;
  /// Label of the compiled circuit the job runs against, taken at submit.
  std::string circuit;
  /// Engine iterations completed so far, over every attempt (refgen,
  /// poles_zeros and simplify jobs).
  int iterations = 0;
  bool cancel_requested = false;
  /// Since submit while live; total lifetime once done.
  double seconds = 0.0;
  /// Execution attempts started (> 1 after transient-failure retries).
  int attempts = 0;
};

using JobProgressFn = std::function<void(JobId, const refgen::IterationRecord&)>;
using JobDoneFn = std::function<void(JobId, const JobOutcome&)>;

/// Per-submit knobs beyond the request payload itself.
struct SubmitOptions {
  JobProgressFn on_progress;
  JobDoneFn on_done;
  /// Wall-clock budget from submit, in milliseconds (0 = none). Enforced
  /// through the job's CancellationToken at the engine's cooperative
  /// checkpoints; an expired job completes with kDeadlineExceeded. A job
  /// still queued at expiry completes immediately without running. A budget
  /// the clock cannot hold (support::deadline_after_ms) completes the job
  /// at once with kInvalidArgument.
  double deadline_ms = 0.0;
  /// Executions allowed for transient-classified failures
  /// (status_is_transient: kUnavailable / kOverloaded / kIoError); 1 means
  /// "no retry". The delay before attempt k+1 is 25 ms doubling per attempt,
  /// capped at 1 s, times a jitter factor in [0.5, 1.5) hashed from (job id,
  /// k) — reproducible, but decorrelated across jobs.
  int max_attempts = 1;
};

class JobManager {
 public:
  /// `workers` <= 0 picks the hardware thread count; at most
  /// support::ThreadPool::kMaxLanes run. `max_queue_depth` bounds tasks
  /// waiting for a worker (0 = unbounded): a submit that finds the queue
  /// full completes immediately with kOverloaded — the shed-load half of
  /// the backpressure contract. Once more than 4096 jobs are held, the
  /// oldest finished ones are forgotten (their ids then poll as kNotFound).
  explicit JobManager(const Service& service, int workers = 0, std::size_t max_queue_depth = 0);
  /// Cancels every live job, waits for running ones to stop at their next
  /// checkpoint, and joins the workers.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueue a request against a compiled handle. Never blocks on the job
  /// itself. An invalid handle still produces a job; it completes with
  /// kInvalidArgument (uniform error reporting for remote callers).
  JobId submit(const CircuitHandle& handle, AnyRequest request, SubmitOptions options = {});

  /// Register an already-materialized result (a reference-store hit) as an
  /// immediately-done job: same id space, same on_done/wait/poll lifecycle
  /// as a computed job, but `stored` is returned verbatim as the outcome's
  /// wire payload — no worker involved.
  JobId submit_stored(const CircuitHandle& handle, AnyRequest request, Json stored,
                      JobDoneFn on_done = {});

  /// Snapshot; kNotFound for unknown/forgotten ids.
  [[nodiscard]] Result<JobInfo> poll(JobId id) const;

  /// Block until the job completes AND its on_done callback returned — so
  /// anything the callback emitted (a daemon's done event) is ordered
  /// before wait() returns. The outcome carries the job's own status
  /// (kCancelled for cancelled jobs). kNotFound for unknown ids.
  [[nodiscard]] Result<JobOutcome> wait(JobId id) const;

  /// Request cancellation. True when the job was live (queued jobs complete
  /// as kCancelled immediately; running jobs stop at the next checkpoint);
  /// false for unknown or already-done jobs.
  bool cancel(JobId id);

  /// Snapshots of every retained job, in submit order.
  [[nodiscard]] std::vector<JobInfo> list() const;

  [[nodiscard]] int workers() const noexcept { return queue_.workers(); }

 private:
  struct Job;
  /// One background thread multiplexing every timed event of the manager —
  /// deadline expirations and retry re-posts — so neither ties up a worker
  /// lane or spawns per-job threads. Created lazily on first use.
  class Monitor;

  [[nodiscard]] std::shared_ptr<Job> find(JobId id) const;
  void register_job(const std::shared_ptr<Job>& job);
  void run(const std::shared_ptr<Job>& job);
  /// Tail of run(): rewrite deadline cancellations, decide whether the
  /// outcome is a retryable transient failure, and either park the job for
  /// a backoff re-post or finish it.
  void maybe_retry_or_finish(const std::shared_ptr<Job>& job, JobOutcome outcome);
  void expire_deadline(const std::shared_ptr<Job>& job);
  Monitor& monitor();
  static void finish(const std::shared_ptr<Job>& job, JobOutcome outcome);
  static JobInfo snapshot(const Job& job);

  const Service& service_;

  mutable std::mutex mutex_;
  JobId next_ = 0;
  std::map<JobId, std::shared_ptr<Job>> jobs_;  // key order == submit order
  std::unique_ptr<Monitor> monitor_;  // shut down explicitly in ~JobManager

  // Declared last: destroyed first, so the worker join in ~WorkQueue happens
  // while the job table is still alive.
  support::WorkQueue queue_;
};

}  // namespace symref::api
