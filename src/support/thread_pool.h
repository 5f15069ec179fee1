// Shared-nothing data parallelism for the sample-evaluation engine.
//
// The evaluation workloads (interpolation sample batches, Bode sweeps,
// multi-circuit reference generation) are embarrassingly parallel: every
// point is an independent assemble + refactor + solve against one immutable
// symbolic plan. The pool therefore offers exactly one primitive —
// parallel_for over an index range — with dynamic chunk self-scheduling
// (an atomic cursor; idle lanes keep grabbing chunks, so uneven per-point
// cost balances itself without task queues).
//
// Determinism contract: the pool never influences results. Which lane
// executes which chunk is scheduling-dependent, but callers write outputs
// by index into preallocated slots and keep all mutable state per-lane, so
// every output element sees the same floating-point sequence at any thread
// count. Reductions (phase unwrap, max-noise scans) are performed by the
// caller afterwards in index order.
//
// The calling thread participates as lane 0; a pool of size 1 spawns no
// threads and runs bodies inline, making `threads = 1` byte-for-byte the
// serial path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace symref::support {

class ThreadPool {
 public:
  /// Lane bound: counts come from requests, and results are bit-identical
  /// at any count, so the clamp changes only speed.
  static constexpr int kMaxLanes = 64;

  /// `threads` <= 0 picks hardware_threads(); at most kMaxLanes run. The
  /// pool keeps `threads - 1` persistent workers (the caller is the
  /// remaining lane), so repeated parallel_for calls — one per
  /// interpolation iteration, say — pay no thread spawn cost.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the calling thread. Always >= 1.
  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Invoke `body(begin, end, lane)` over disjoint chunks covering
  /// [0, count). `lane` is in [0, size()) and is stable for the duration of
  /// one chunk — use it to index per-lane scratch state. Chunks are handed
  /// out dynamically; do not assume any chunk-to-lane mapping. Blocks until
  /// the whole range is done. The first exception thrown by a body is
  /// rethrown here (remaining chunks are abandoned). Not reentrant: do not
  /// call parallel_for from inside a body.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t begin, std::size_t end, int lane)>& body);

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads() noexcept;

 private:
  void worker_loop(int lane);
  void run_chunks(int lane);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per parallel_for; wakes workers
  int busy_workers_ = 0;
  bool stop_ = false;

  // Current job (valid while busy_workers_ > 0 or the caller runs chunks).
  const std::function<void(std::size_t, std::size_t, int)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> cursor_{0};
  std::exception_ptr error_;
};

/// FIFO task executor for job-style workloads — the complement of
/// ThreadPool. parallel_for fans ONE computation out and blocks the caller;
/// a WorkQueue accepts MANY independent computations (api::JobManager's
/// submitted jobs) and runs them on persistent workers while the caller
/// moves on. Tasks must not throw (run whole jobs that report failure
/// through their own channel); a throwing task terminates, by design.
class WorkQueue {
 public:
  /// Outcome of try_post — the backpressure contract.
  enum class PostResult {
    kAccepted,  ///< task enqueued (or already running)
    kFull,      ///< depth bound hit; task dropped — shed load, retry later
    kStopped,   ///< shutdown began; task dropped
  };

  /// `workers` <= 0 picks hardware_threads(); at most ThreadPool::kMaxLanes
  /// run. Unlike ThreadPool, the caller is NOT a lane — try_post() returns
  /// immediately — so a queue always spawns at least one worker.
  /// `max_pending` bounds the tasks waiting to start (0 = unbounded): a
  /// bounded queue sheds load instead of buffering an unbounded backlog
  /// behind a slow worker pool.
  explicit WorkQueue(int workers = 0, std::size_t max_pending = 0);
  /// Stops accepting work, discards tasks that have not started, and joins
  /// the workers (running tasks finish first). Callers that need discarded
  /// tasks observed (job managers completing them as cancelled) must do so
  /// before destruction.
  ~WorkQueue();

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Enqueue a task, distinguishing "queue full" from "shut down" so
  /// callers can answer kOverloaded vs kCancelled.
  PostResult try_post(std::function<void()> task);

  [[nodiscard]] int workers() const noexcept { return static_cast<int>(workers_.size()); }
  /// Tasks posted but not yet started.
  [[nodiscard]] std::size_t pending() const;
  /// Depth bound (0 = unbounded).
  [[nodiscard]] std::size_t max_pending() const noexcept { return max_pending_; }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::size_t max_pending_ = 0;
  bool stop_ = false;
};

}  // namespace symref::support
