// support::WorkQueue: FIFO task execution on persistent workers.
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace symref::support {
namespace {

TEST(WorkQueue, DestructorDiscardsUnstartedTasksWithoutHanging) {
  std::atomic<int> started{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  {
    WorkQueue queue(1);
    EXPECT_EQ(queue.workers(), 1);
    // Occupy the only worker until released, then pile up pending tasks.
    EXPECT_EQ(queue.try_post([&] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    }),
              WorkQueue::PostResult::kAccepted);
    while (started.load() == 0) std::this_thread::yield();
    for (int i = 0; i < 10; ++i) queue.try_post([&] { started.fetch_add(1); });
    {
      const std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }  // ~WorkQueue: discards the (still mostly) pending tasks, joins cleanly
  // The blocked task ran; the pile-up was discarded except for whatever the
  // worker managed to pop between release and the destructor's stop flag.
  EXPECT_GE(started.load(), 1);
  EXPECT_LE(started.load(), 11);
}

TEST(WorkQueue, DrainsWhenCallerWaits) {
  // Declared before the queue: the queue's destructor joins its workers
  // while these are still alive (a worker can be inside cv.notify_all()).
  std::atomic<int> count{0};
  std::mutex mutex;
  std::condition_variable cv;
  WorkQueue queue(3);
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    queue.try_post([&] {
      if (count.fetch_add(1) + 1 == kTasks) {
        const std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return count.load() == kTasks; }));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueue, TasksRunOffTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id worker;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  WorkQueue queue(1);  // after the cv: joined before the cv is destroyed
  queue.try_post([&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      worker = std::this_thread::get_id();
      done = true;
    }
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  EXPECT_NE(worker, caller);
}

TEST(WorkQueue, DefaultWorkerCountIsHardware) {
  WorkQueue queue;
  EXPECT_EQ(queue.workers(), ThreadPool::hardware_threads());
}

TEST(WorkQueue, WorkerCountIsBoundedLikeThePoolLanes) {
  // Counts come from daemon flags; one past the bound starts no more threads.
  WorkQueue queue(ThreadPool::kMaxLanes + 1);
  EXPECT_EQ(queue.workers(), ThreadPool::kMaxLanes);
}

TEST(WorkQueue, BoundedQueueShedsLoadWhenFull) {
  std::atomic<int> ran{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  WorkQueue queue(1, /*max_pending=*/2);
  EXPECT_EQ(queue.max_pending(), 2u);
  // Occupy the worker so subsequent posts stay pending.
  std::atomic<bool> blocked{false};
  ASSERT_EQ(queue.try_post([&] {
              blocked.store(true);
              std::unique_lock<std::mutex> lock(mutex);
              cv.wait(lock, [&] { return release; });
              ran.fetch_add(1);
            }),
            WorkQueue::PostResult::kAccepted);
  while (!blocked.load()) std::this_thread::yield();
  // Two fit the bound; the third is shed.
  EXPECT_EQ(queue.try_post([&] { ran.fetch_add(1); }), WorkQueue::PostResult::kAccepted);
  EXPECT_EQ(queue.try_post([&] { ran.fetch_add(1); }), WorkQueue::PostResult::kAccepted);
  EXPECT_EQ(queue.try_post([&] { ran.fetch_add(1); }), WorkQueue::PostResult::kFull);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  // Accepted tasks drain; shed ones never run.
  while (ran.load() < 3) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 3);
}

TEST(WorkQueue, UnboundedByDefault) {
  WorkQueue queue(1);
  EXPECT_EQ(queue.max_pending(), 0u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.try_post([&] { ran.fetch_add(1); }), WorkQueue::PostResult::kAccepted);
  }
  while (ran.load() < 100) std::this_thread::yield();
}

}  // namespace
}  // namespace symref::support
