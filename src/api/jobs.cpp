#include "api/jobs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "support/fault_injection.h"
#include "support/random.h"
#include "support/timer.h"

namespace symref::api {

namespace {

using MonotonicClock = std::chrono::steady_clock;

/// Bound on the jobs a manager holds: beyond it, the oldest finished jobs
/// are forgotten (their ids then poll as kNotFound).
constexpr std::size_t kMaxRetainedJobs = 4096;

/// The outcome of a job of `type` that ends with `status` and no response.
JobOutcome failure(AnyRequest::Type type, Status status) {
  JobOutcome outcome;
  outcome.type = type;
  outcome.status = std::move(status);
  return outcome;
}

/// Backoff before attempt `attempts + 1`, given `attempts` completed ones:
/// 25 ms doubling per attempt, capped at 1 s, times a jitter factor hashed
/// from (job id, attempts).
double backoff_delay_ms(int attempts, JobId id) noexcept {
  double base = 25.0;
  for (int k = 1; k < attempts && base < 1000.0; ++k) base *= 2.0;
  base = std::min(base, 1000.0);
  constexpr std::uint64_t kJitterStream = support::mix64(0);
  const std::uint64_t draw = support::mix64(kJitterStream ^ support::mix64(id) ^
                                            static_cast<std::uint64_t>(attempts));
  const double unit = static_cast<double>(draw >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (0.5 + unit);                                       // [0.5x, 1.5x)
}

}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "done";
}

Json to_json(const JobOutcome& outcome) {
  if (!outcome.status.ok()) {
    return error_response(request_type_name(outcome.type), outcome.status);
  }
  // A store hit replays the persisted bytes verbatim (byte-identical across
  // daemon restarts — the whole point of the reference store).
  if (!outcome.raw.is_null()) return outcome.raw;
  switch (outcome.type) {
    case AnyRequest::Type::kRefgen: return to_json(outcome.refgen);
    case AnyRequest::Type::kSweep: return to_json(outcome.sweep);
    case AnyRequest::Type::kPolesZeros: return to_json(outcome.poles_zeros);
    case AnyRequest::Type::kBatch: return to_json(outcome.batch);
    case AnyRequest::Type::kParamSweep: return to_json(outcome.param_sweep);
    case AnyRequest::Type::kSimplify: return to_json(outcome.simplify);
    case AnyRequest::Type::kOp: return to_json(outcome.op);
    case AnyRequest::Type::kTransient: return to_json(outcome.transient);
  }
  return error_response("refgen", Status::error(StatusCode::kInternal, "bad outcome type"));
}

JobOutcome execute(const Service& service, const CircuitHandle& handle, AnyRequest request,
                   const support::CancellationToken& cancel,
                   const refgen::ProgressObserver& on_iteration) {
  // The engine options of refgen, poles_zeros and simplify take the token
  // and chain the caller's observer after the request's own.
  const auto wire = [&](refgen::AdaptiveOptions& options) {
    options.cancel = cancel;
    if (!on_iteration) return;
    options.on_iteration = [inner = std::move(options.on_iteration),
                            on_iteration](const refgen::IterationRecord& record) {
      if (inner) inner(record);
      on_iteration(record);
    };
  };
  JobOutcome outcome;
  outcome.type = request.type;
  // One capture path for every request type: the status, and the response
  // in the outcome's slot for that type.
  const auto keep = [&outcome](auto response, auto& slot) {
    outcome.status = response.status();
    if (response.ok()) slot = response.take();
  };
  switch (request.type) {
    case AnyRequest::Type::kRefgen:
      wire(request.refgen.options);
      keep(service.refgen(handle, request.refgen), outcome.refgen);
      break;
    case AnyRequest::Type::kSweep:
      request.sweep.cancel = cancel;
      keep(service.sweep(handle, request.sweep), outcome.sweep);
      break;
    case AnyRequest::Type::kPolesZeros:
      wire(request.poles_zeros.options);
      keep(service.poles_zeros(handle, request.poles_zeros), outcome.poles_zeros);
      break;
    case AnyRequest::Type::kBatch:
      for (RefgenRequest& item : request.batch.items) item.options.cancel = cancel;
      keep(service.batch(handle, request.batch), outcome.batch);
      break;
    case AnyRequest::Type::kParamSweep:
      request.param_sweep.cancel = cancel;
      keep(service.param_sweep(handle, request.param_sweep), outcome.param_sweep);
      break;
    case AnyRequest::Type::kSimplify:
      // The simplify engine re-runs the reference internally; its observer
      // hook feeds the same progress stream as a refgen request.
      wire(request.simplify.options.engine);
      keep(service.simplify(handle, request.simplify), outcome.simplify);
      break;
    case AnyRequest::Type::kOp:
      // The bias was solved at compile: the serve is a lock-free copy of the
      // stored solution, with nothing to cancel.
      keep(service.op(handle, request.op), outcome.op);
      break;
    case AnyRequest::Type::kTransient:
      // The token trips the integrator's per-step (and per-Newton-iterate)
      // checkpoints, so cancellation lands mid-run, not only at the end.
      request.transient.cancel = cancel;
      keep(service.transient(handle, request.transient), outcome.transient);
      break;
  }
  return outcome;
}

/// All mutable job state. The per-job mutex guards state/outcome and the
/// handle; the other fields set once at submit (request, circuit, callbacks)
/// are immutable afterwards and safe to read from the worker without it.
struct JobManager::Job {
  JobId id = 0;
  /// The circuit the job runs against, released when the job finishes so a
  /// retained job never pins an evicted circuit and its caches.
  CircuitHandle handle;
  std::string circuit;  // the handle's name, kept for poll() and list()
  AnyRequest request;
  JobProgressFn on_progress;
  JobDoneFn on_done;
  support::CancellationSource cancel_source;
  support::Timer timer;  // started at submit
  int max_attempts = 1;  // immutable after submit
  double deadline_ms = 0.0;
  MonotonicClock::time_point deadline_at;  // meaningful when deadline_ms > 0

  std::mutex mutex;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  /// Set after on_done returned: wait() releases only then, so everything
  /// on_done produced (a protocol session's done event, say) is ordered
  /// before any wait() return for this job.
  bool callbacks_done = false;
  bool cancel_requested = false;
  /// Set by the monitor when deadline_at passed before completion; the
  /// engine's kCancelled (from the tripped token) is rewritten to
  /// kDeadlineExceeded, and no retry is attempted.
  bool deadline_hit = false;
  int attempts = 0;                // executions started
  std::atomic<int> iterations{0};  // bumped from the engine observer
  double total_seconds = 0.0;      // frozen at finish
  JobOutcome outcome;              // meaningful once state == kDone
};

/// Timed-event thread: a single multimap of (fire time -> closure) ordered
/// by time, drained by one background thread. Closures run off the monitor
/// thread with no locks held, so they may take job mutexes and post to the
/// work queue freely.
class JobManager::Monitor {
 public:
  Monitor() : thread_([this] { loop(); }) {}
  ~Monitor() { shutdown(); }

  void schedule(MonotonicClock::time_point when, std::function<void()> event) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
      events_.emplace(when, std::move(event));
    }
    cv_.notify_all();
  }

  /// Discards pending events and joins. Idempotent.
  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      events_.clear();
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (stop_) return;
      if (events_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const MonotonicClock::time_point next = events_.begin()->first;
      if (MonotonicClock::now() < next) {
        cv_.wait_until(lock, next);
        continue;  // re-check stop / earlier insertions
      }
      std::function<void()> event = std::move(events_.begin()->second);
      events_.erase(events_.begin());
      lock.unlock();
      event();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::multimap<MonotonicClock::time_point, std::function<void()>> events_;
  bool stop_ = false;
  std::thread thread_;
};

JobManager::JobManager(const Service& service, int workers, std::size_t max_queue_depth)
    : service_(service), queue_(workers, max_queue_depth) {}

JobManager::~JobManager() {
  std::vector<std::shared_ptr<Job>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) live.push_back(job);
  }
  // Queued jobs complete as kCancelled here; running jobs get their token
  // tripped and stop at the next checkpoint. Backoff-parked jobs are queued,
  // so they complete here too — their pending monitor events then see a done
  // job and drop. The monitor is joined before member destruction begins so
  // no event can touch the queue or job table mid-teardown; the WorkQueue
  // member is destroyed first (declared last), joining the workers.
  for (const std::shared_ptr<Job>& job : live) cancel(job->id);
  if (monitor_) monitor_->shutdown();
}

JobManager::Monitor& JobManager::monitor() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!monitor_) monitor_ = std::make_unique<Monitor>();
  return *monitor_;
}

void JobManager::register_job(const std::shared_ptr<Job>& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  job->id = ++next_;
  jobs_.emplace(job->id, job);
  // Forget the oldest finished jobs beyond the retention bound. Live jobs
  // are never dropped, so a slow queue cannot lose work — only history.
  if (jobs_.size() > kMaxRetainedJobs) {
    for (auto it = jobs_.begin(); it != jobs_.end() && jobs_.size() > kMaxRetainedJobs;) {
      bool done = false;
      {
        const std::lock_guard<std::mutex> job_lock(it->second->mutex);
        done = it->second->state == JobState::kDone;
      }
      it = done ? jobs_.erase(it) : std::next(it);
    }
  }
}

JobId JobManager::submit(const CircuitHandle& handle, AnyRequest request,
                         SubmitOptions options) {
  auto job = std::make_shared<Job>();
  job->handle = handle;
  job->circuit = handle.valid() ? handle.name() : std::string();
  job->request = std::move(request);
  job->on_progress = std::move(options.on_progress);
  job->on_done = std::move(options.on_done);
  job->max_attempts = std::max(options.max_attempts, 1);
  register_job(job);
  if (options.deadline_ms > 0.0) {
    const auto deadline_at = support::deadline_after_ms(options.deadline_ms);
    if (!deadline_at) {
      finish(job, failure(job->request.type,
                          Status::error(StatusCode::kInvalidArgument,
                                        "deadline_ms " + std::to_string(options.deadline_ms) +
                                            " is beyond the clock's range")));
      return job->id;
    }
    job->deadline_ms = options.deadline_ms;
    job->deadline_at = *deadline_at;
    monitor().schedule(job->deadline_at, [this, job] { expire_deadline(job); });
  }
  const auto posted = queue_.try_post([this, job] { run(job); });
  if (posted == support::WorkQueue::PostResult::kFull) {
    finish(job, failure(job->request.type,
                        Status::error(StatusCode::kOverloaded,
                                      "work queue full (" + std::to_string(queue_.pending()) +
                                          "/" + std::to_string(queue_.max_pending()) +
                                          " pending); retry after backoff")));
  } else if (posted == support::WorkQueue::PostResult::kStopped) {
    finish(job, failure(job->request.type,
                        Status::error(StatusCode::kCancelled, "job manager is shutting down")));
  }
  return job->id;
}

JobId JobManager::submit_stored(const CircuitHandle& handle, AnyRequest request, Json stored,
                                JobDoneFn on_done) {
  auto job = std::make_shared<Job>();
  job->circuit = handle.valid() ? handle.name() : std::string();
  job->request = std::move(request);
  job->on_done = std::move(on_done);
  register_job(job);
  JobOutcome outcome;
  outcome.type = job->request.type;
  outcome.raw = std::move(stored);
  job->attempts = 0;  // never executed — served from the persistent store
  finish(job, std::move(outcome));
  return job->id;
}

void JobManager::expire_deadline(const std::shared_ptr<Job>& job) {
  bool was_queued = false;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state == JobState::kDone) return;
    job->deadline_hit = true;
    // Trip the token: a running engine stops at its next cooperative
    // checkpoint and reports kCancelled, which run() rewrites below.
    job->cancel_source.cancel();
    was_queued = job->state == JobState::kQueued;
  }
  if (was_queued) {
    finish(job, failure(job->request.type,
                        Status::error(StatusCode::kDeadlineExceeded,
                                      "deadline of " + std::to_string(job->deadline_ms) +
                                          " ms expired before the job ran")));
  }
}

std::shared_ptr<JobManager::Job> JobManager::find(JobId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void JobManager::finish(const std::shared_ptr<Job>& job, JobOutcome outcome) {
  CircuitHandle released;  // dropped after the lock: it may free the circuit
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state == JobState::kDone) return;  // lost the race to cancel()
    job->state = JobState::kDone;
    job->total_seconds = job->timer.seconds();
    job->outcome = std::move(outcome);
    released = std::move(job->handle);
  }
  // outcome/on_done are immutable once done; calling outside the lock keeps
  // callbacks free to poll() without deadlocking (they must not wait() on
  // their own job — waiters are released only after this returns).
  if (job->on_done) job->on_done(job->id, job->outcome);
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    job->callbacks_done = true;
  }
  job->cv.notify_all();
}

void JobManager::run(const std::shared_ptr<Job>& job) {
  // The attempt's own reference: a concurrent finish() (a cancel or deadline
  // that raced this start) may release the job's handle meanwhile.
  CircuitHandle handle;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
    ++job->attempts;
    handle = job->handle;
  }
  // Fault site "work_queue": the attempt fails with a transient status
  // before touching the engine — the cheapest way to drive the retry
  // machinery below through real backoff/re-post cycles.
  if (support::fault("work_queue")) {
    maybe_retry_or_finish(job, failure(job->request.type,
                                       Status::error(StatusCode::kUnavailable,
                                                     "injected fault at site work_queue")));
    return;
  }
  JobOutcome outcome = execute(service_, handle, job->request, job->cancel_source.token(),
                               [&job](const refgen::IterationRecord& record) {
                                 job->iterations.fetch_add(1, std::memory_order_relaxed);
                                 if (job->on_progress) job->on_progress(job->id, record);
                               });
  maybe_retry_or_finish(job, std::move(outcome));
}

void JobManager::maybe_retry_or_finish(const std::shared_ptr<Job>& job, JobOutcome outcome) {
  const MonotonicClock::time_point now = MonotonicClock::now();
  bool retry = false;
  double delay_ms = 0.0;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    // Deadline rewrite: the engine saw only a tripped token, so it reports
    // kCancelled; the caller asked for a deadline, so it gets the code that
    // says which one happened.
    if (job->deadline_hit && outcome.status.code() == StatusCode::kCancelled) {
      outcome.status = Status::error(
          StatusCode::kDeadlineExceeded,
          "deadline of " + std::to_string(job->deadline_ms) + " ms exceeded");
    }
    if (job->state == JobState::kRunning && status_is_transient(outcome.status.code()) &&
        !job->cancel_requested && !job->deadline_hit &&
        job->attempts < job->max_attempts) {
      delay_ms = backoff_delay_ms(job->attempts, job->id);
      const auto fire_at = now + std::chrono::duration_cast<MonotonicClock::duration>(
                                     std::chrono::duration<double, std::milli>(delay_ms));
      // Never schedule a retry that cannot complete before the deadline.
      if (job->deadline_ms <= 0.0 || fire_at < job->deadline_at) {
        job->state = JobState::kQueued;  // cancel()/deadline can still claim it
        retry = true;
      }
    }
  }
  if (!retry) {
    finish(job, std::move(outcome));
    return;
  }
  const auto fire_at = now + std::chrono::duration_cast<MonotonicClock::duration>(
                                 std::chrono::duration<double, std::milli>(delay_ms));
  monitor().schedule(fire_at, [this, job] {
    {
      const std::lock_guard<std::mutex> lock(job->mutex);
      if (job->state != JobState::kQueued) return;  // finished while parked
    }
    if (queue_.try_post([this, job] { run(job); }) !=
        support::WorkQueue::PostResult::kAccepted) {
      finish(job, failure(job->request.type,
                          Status::error(StatusCode::kCancelled,
                                        "worker queue unavailable during retry")));
    }
  });
}

JobInfo JobManager::snapshot(const Job& job) {
  // Caller holds job.mutex.
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.type = job.request.type;
  info.circuit = job.circuit;
  info.iterations = job.iterations.load(std::memory_order_relaxed);
  info.cancel_requested = job.cancel_requested;
  info.seconds = job.state == JobState::kDone ? job.total_seconds : job.timer.seconds();
  info.attempts = job.attempts;
  return info;
}

Result<JobInfo> JobManager::poll(JobId id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) {
    return Status::error(StatusCode::kNotFound, "unknown job_id " + std::to_string(id));
  }
  const std::lock_guard<std::mutex> lock(job->mutex);
  return snapshot(*job);
}

Result<JobOutcome> JobManager::wait(JobId id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) {
    return Status::error(StatusCode::kNotFound, "unknown job_id " + std::to_string(id));
  }
  std::unique_lock<std::mutex> lock(job->mutex);
  job->cv.wait(lock, [&] { return job->state == JobState::kDone && job->callbacks_done; });
  return job->outcome;
}

bool JobManager::cancel(JobId id) {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return false;
  bool was_queued = false;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state == JobState::kDone) return false;
    job->cancel_requested = true;
    job->cancel_source.cancel();
    was_queued = job->state == JobState::kQueued;
  }
  if (was_queued) {
    // Complete it right here; when a worker later pops the task it sees a
    // non-queued state and skips. (If the worker wins the race instead, the
    // tripped token stops the engine at its first checkpoint and the
    // worker's kCancelled outcome lands — either way exactly one finish.)
    finish(job, failure(job->request.type,
                        Status::error(StatusCode::kCancelled, "job cancelled before it started")));
  }
  return true;
}

std::vector<JobInfo> JobManager::list() const {
  std::vector<std::shared_ptr<Job>> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) all.push_back(job);
  }
  std::vector<JobInfo> infos;
  infos.reserve(all.size());
  for (const std::shared_ptr<Job>& job : all) {
    const std::lock_guard<std::mutex> lock(job->mutex);
    infos.push_back(snapshot(*job));
  }
  return infos;
}

}  // namespace symref::api
