// ThreadPool: coverage, chunking, lanes, exceptions, determinism contract.
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace symref::support {
namespace {

TEST(ThreadPool, SizeIncludesCaller) {
  ThreadPool serial(1);
  EXPECT_EQ(serial.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
  ThreadPool hardware(0);
  EXPECT_GE(hardware.size(), 1);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, LanesAreClampedToTheBound) {
  // Lane counts come from requests. One over the bound keeps this test at
  // 64 threads even against a pool without the clamp.
  ThreadPool pool(ThreadPool::kMaxLanes + 1);
  EXPECT_EQ(pool.size(), ThreadPool::kMaxLanes);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{100},
                                    std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(count, [&](std::size_t begin, std::size_t end, int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, pool.size());
        ASSERT_LT(begin, end);
        ASSERT_LE(end, count);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " count=" << count
                                     << " index=" << i;
      }
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, IndexedWritesAreDeterministic) {
  // The determinism contract: outputs written by index do not depend on the
  // thread count. (Each slot's value depends only on its index here; real
  // workloads arrange the same property via per-lane state.)
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = 1.0 / (1.0 + static_cast<double>(i));
      }
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  long long total = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<long long> partial(64, 0);
    pool.parallel_for(partial.size(), [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i) partial[i] = static_cast<long long>(i);
    });
    total += std::accumulate(partial.begin(), partial.end(), 0LL);
  }
  EXPECT_EQ(total, 50LL * (63 * 64 / 2));
}

TEST(ThreadPool, FirstExceptionPropagates) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t begin, std::size_t end, int) {
                            for (std::size_t i = begin; i < end; ++i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }
                          }),
        std::runtime_error);
    // The pool stays usable after an exception.
    std::atomic<int> hits{0};
    pool.parallel_for(10, [&](std::size_t begin, std::size_t end, int) {
      hits += static_cast<int>(end - begin);
    });
    EXPECT_EQ(hits.load(), 10);
  }
}

}  // namespace
}  // namespace symref::support
