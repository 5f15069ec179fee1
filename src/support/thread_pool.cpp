#include "support/thread_pool.h"

#include <algorithm>

namespace symref::support {

int ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = hardware_threads();
  threads = std::min(threads, kMaxLanes);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int lane = 1; lane < threads; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(int lane) {
  for (;;) {
    const std::size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= count_) return;
    const std::size_t end = std::min(begin + chunk_, count_);
    try {
      (*body_)(begin, end, lane);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      // Abandon the remaining range: park the cursor past the end so every
      // lane drains without invoking the body again.
      cursor_.store(count_, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    run_chunks(lane);
    lock.lock();
    if (--busy_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, std::size_t, int)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline fast path — identical to the parallel one (chunking only splits
    // the index range; the body sees the same (begin, end) partition).
    body(0, count, 0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    // ~4 chunks per lane: coarse enough to amortize the atomic grab, fine
    // enough that one slow chunk cannot idle the other lanes for long.
    chunk_ = std::max<std::size_t>(1, count / (static_cast<std::size_t>(size()) * 4));
    cursor_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    busy_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  run_chunks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return busy_workers_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

WorkQueue::WorkQueue(int workers, std::size_t max_pending) : max_pending_(max_pending) {
  if (workers <= 0) workers = ThreadPool::hardware_threads();
  workers = std::min(workers, ThreadPool::kMaxLanes);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkQueue::~WorkQueue() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    tasks_.clear();
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

WorkQueue::PostResult WorkQueue::try_post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return PostResult::kStopped;
    if (max_pending_ > 0 && tasks_.size() >= max_pending_) return PostResult::kFull;
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
  return PostResult::kAccepted;
}

std::size_t WorkQueue::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

void WorkQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
    if (stop_) return;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace symref::support
