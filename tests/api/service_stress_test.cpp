// The documented Service thread-safety contract, under load: many threads
// hammering one handle (same and different specs) and many handles
// concurrently, with every response bit-identical to the serial path; plus
// the bounded response cache (LRU eviction + CacheStats counters).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "api/service.h"
#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "numeric/scaled.h"

namespace symref::api {
namespace {

constexpr int kStages = 8;

netlist::Circuit stress_circuit() { return circuits::rc_ladder(kStages); }

/// The two specs the stress mixes on one handle: across the ladder and to
/// its midpoint.
mna::TransferSpec spec_full() { return circuits::rc_ladder_spec(kStages); }
mna::TransferSpec spec_mid() { return mna::TransferSpec::voltage_gain("in", "n4"); }

/// Canonical fingerprint of a response: the serialized reference (hex-float
/// mantissas make the comparison bit-exact).
std::string fingerprint(const RefgenResponse& response) {
  return to_json(response.result.reference).dump();
}

/// Serial baseline: each request computed cold on its own fresh handle —
/// exactly what a lone caller would get.
std::string serial_refgen(const mna::TransferSpec& spec) {
  const Service service;
  const auto handle = service.compile(stress_circuit());
  EXPECT_TRUE(handle.ok());
  const auto response = service.refgen(handle.value(), {spec, {}});
  EXPECT_TRUE(response.ok()) << response.status().to_string();
  return fingerprint(response.value());
}

TEST(ServiceStress, OneHandleManySpecsManyThreadsBitIdenticalToSerial) {
  const std::string expected_full = serial_refgen(spec_full());
  const std::string expected_mid = serial_refgen(spec_mid());
  // Distinct specs genuinely differ — the assertion below is not vacuous.
  ASSERT_NE(expected_full, expected_mid);

  const Service service;
  const auto compiled = service.compile(stress_circuit(), "ladder-8");
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();

  // One options set per spec: with response caching on, each spec is
  // computed by whichever threads miss before the first insert (racing
  // identical misses may each compute), every run on a fresh evaluator, and
  // every later thread receives the memoized copy. Bit-identity to the
  // serial path is therefore exact.
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const bool full = (t + round) % 2 == 0;
        const auto response = service.refgen(handle, {full ? spec_full() : spec_mid(), {}});
        if (!response.ok() ||
            fingerprint(response.value()) != (full ? expected_full : expected_mid)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  // Every request either hit or computed; each spec computed at least once
  // and is memoized once.
  EXPECT_EQ(stats.value().hits + stats.value().misses,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_GE(stats.value().misses, 2u);
  EXPECT_EQ(stats.value().evictions, 0u);
  EXPECT_EQ(stats.value().entries, 2u);
}

// The same_spec shape: concurrent cache misses on ONE spec of the µA741,
// each with its own tuning_r. No engine state is shared between requests,
// so every answer is bit-identical to the same request on a fresh handle.
TEST(ServiceStress, ConcurrentMissesOnOneSpecBitIdenticalToFreshHandles) {
  const netlist::Circuit ua741 = circuits::ua741();
  const mna::TransferSpec spec = circuits::ua741_gain_spec();
  constexpr int kThreads = 6;
  auto request_for = [&](int t) {
    RefgenRequest request{spec, {}};
    request.options.tuning_r = 0.5 * (t - 1);
    return request;
  };

  std::vector<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    const Service fresh;
    const auto handle = fresh.compile(ua741);
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    const auto response = fresh.refgen(handle.value(), request_for(t));
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    expected.push_back(fingerprint(response.value()));
  }

  const Service service;
  const auto compiled = service.compile(ua741);
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();
  std::atomic<int> waiting{kThreads};
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      const auto response = service.refgen(handle, request_for(t));
      if (response.ok()) got[t] = fingerprint(response.value());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected[t]) << "thread " << t;

  const auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.value().entries, static_cast<std::size_t>(kThreads));
}

TEST(ServiceStress, ManyHandlesConcurrentlyBitIdenticalToSerial) {
  const std::string expected = serial_refgen(spec_full());
  const Service service;
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Each thread compiles its own handle and queries it — the
      // many-independent-clients shape.
      const auto handle = service.compile(stress_circuit());
      if (!handle.ok()) {
        failures.fetch_add(1);
        return;
      }
      const auto response = service.refgen(handle.value(), {spec_full(), {}});
      if (!response.ok() || fingerprint(response.value()) != expected) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServiceStress, MixedSweepAndRefgenOnOneHandle) {
  const Service service;
  const auto compiled = service.compile(stress_circuit());
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();

  SweepRequest sweep;
  sweep.spec = spec_full();
  sweep.f_start_hz = 1.0;
  sweep.f_stop_hz = 1e6;
  sweep.points_per_decade = 3;
  const auto sweep_baseline = service.sweep(handle, sweep);
  ASSERT_TRUE(sweep_baseline.ok());
  const auto refgen_baseline = service.refgen(handle, {spec_full(), {}});
  ASSERT_TRUE(refgen_baseline.ok());

  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        if ((t + round) % 2 == 0) {
          const auto response = service.sweep(handle, sweep);
          if (!response.ok() ||
              response.value().points.size() != sweep_baseline.value().points.size()) {
            failures.fetch_add(1);
            continue;
          }
          for (std::size_t i = 0; i < response.value().points.size(); ++i) {
            if (response.value().points[i].value != sweep_baseline.value().points[i].value) {
              failures.fetch_add(1);
              break;
            }
          }
        } else {
          const auto response = service.refgen(handle, {spec_full(), {}});
          if (!response.ok() || fingerprint(response.value()) !=
                                    fingerprint(refgen_baseline.value())) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// max_cached_responses bounds each of the handle's per-type response caches,
// evicting least-recently-used entries, with the counters exposed through
// CacheStats.
TEST(ServiceCacheBound, LruEvictionAndCounters) {
  ServiceOptions options;
  options.max_cached_responses = 2;
  const Service service(options);
  const auto compiled = service.compile(stress_circuit());
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();

  auto request_with_sigma = [&](int sigma) {
    RefgenRequest request{spec_full(), {}};
    request.options.sigma = sigma;
    return request;
  };

  // A, B, C with capacity 2: C's insert evicts A (least recently used).
  ASSERT_TRUE(service.refgen(handle, request_with_sigma(5)).ok());  // A: miss
  ASSERT_TRUE(service.refgen(handle, request_with_sigma(6)).ok());  // B: miss
  ASSERT_TRUE(service.refgen(handle, request_with_sigma(7)).ok());  // C: miss, evicts A
  auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().misses, 3u);
  EXPECT_EQ(stats.value().hits, 0u);
  EXPECT_EQ(stats.value().evictions, 1u);
  EXPECT_EQ(stats.value().entries, 2u);

  // A again: recomputed (it was evicted) and reinserted, evicting B.
  const auto a_again = service.refgen(handle, request_with_sigma(5));
  ASSERT_TRUE(a_again.ok());
  EXPECT_FALSE(a_again.value().from_cache);
  // C again: still resident.
  const auto c_again = service.refgen(handle, request_with_sigma(7));
  ASSERT_TRUE(c_again.ok());
  EXPECT_TRUE(c_again.value().from_cache);

  stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().misses, 4u);
  EXPECT_EQ(stats.value().hits, 1u);
  EXPECT_EQ(stats.value().evictions, 2u);
  EXPECT_EQ(stats.value().entries, 2u);

  // Unbounded mode (0) never evicts — the pre-LRU behavior stays available.
  ServiceOptions unbounded;
  unbounded.max_cached_responses = 0;
  const Service open_service(unbounded);
  const auto open_handle = open_service.compile(stress_circuit());
  ASSERT_TRUE(open_handle.ok());
  for (int sigma = 4; sigma < 10; ++sigma) {
    ASSERT_TRUE(open_service.refgen(open_handle.value(), request_with_sigma(sigma)).ok());
  }
  const auto open_stats = open_service.cache_stats(open_handle.value());
  ASSERT_TRUE(open_stats.ok());
  EXPECT_EQ(open_stats.value().evictions, 0u);
  EXPECT_EQ(open_stats.value().entries, 6u);
}

// The one key rule (request_key) over an overflowing sequence: one LRU per
// request type per handle, execution knobs outside the key, one ulp inside
// it.
TEST(ServiceCacheBound, KeyRuleAndPerTypeLruOrder) {
  ServiceOptions options;
  options.max_cached_responses = 2;
  const Service service(options);
  const auto compiled = service.compile_netlist(
      "I1 0 in 1m\nR0 in 0 1k\nR1 in n1 1k\nC1 n1 0 1n\nR2 n1 out 1k\nC2 out 0 1n\n");
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CircuitHandle handle = compiled.value();
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("in", "out");

  auto sweep = [&](double f_start, int threads = 1) {
    SweepRequest request;
    request.spec = spec;
    request.f_start_hz = f_start;
    request.f_stop_hz = 1e6;
    request.points_per_decade = 2;
    request.threads = threads;
    const auto response = service.sweep(handle, request);
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    return response.ok() && response.value().from_cache;
  };
  auto refgen = [&]() {
    const auto response = service.refgen(handle, {spec, {}});
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    return response.ok() && response.value().from_cache;
  };
  const double nudged = std::nextafter(3.0, 0.0);

  EXPECT_FALSE(refgen());
  EXPECT_FALSE(sweep(1.0));
  EXPECT_TRUE(sweep(1.0, 4));    // threads are not part of the key
  EXPECT_FALSE(sweep(2.0));
  EXPECT_FALSE(sweep(3.0));      // evicts 1.0 (least recently used)
  EXPECT_TRUE(refgen());         // the refgen LRU is separate
  EXPECT_FALSE(sweep(1.0));      // recomputed; evicts 2.0
  EXPECT_TRUE(sweep(3.0));       // touched: now most recent
  EXPECT_FALSE(sweep(nudged));   // one ulp is another entry; evicts 1.0
  EXPECT_FALSE(sweep(1.0));      // so 1.0 misses again; evicts 3.0
  EXPECT_TRUE(sweep(nudged));

  TransientRequest transient;
  transient.tstop = 1e-5;
  ASSERT_TRUE(service.transient(handle, transient).ok());
  const auto repeat = service.transient(handle, transient);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().from_cache);

  const auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().misses, 8u);
  EXPECT_EQ(stats.value().hits, 5u);
  EXPECT_EQ(stats.value().evictions, 4u);
  EXPECT_EQ(stats.value().entries, 4u);  // 1 refgen + 2 sweeps + 1 transient
}

// The bound is per handle, not per spec: refgens on distinct specs share
// the one refgen LRU, so spec churn cannot grow a handle, and a request
// that fails (unknown output node) leaves no cache state behind.
TEST(ServiceCacheBound, DistinctSpecsShareTheTypeBound) {
  ServiceOptions options;
  options.max_cached_responses = 4;
  const Service service(options);
  const auto compiled = service.compile(circuits::rc_ladder(8));
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle handle = compiled.value();

  auto refgen_to = [&](std::string out, int index) {
    out += std::to_string(index);
    return service.refgen(handle, {mna::TransferSpec::voltage_gain("in", out), {}});
  };
  for (int k = 1; k <= 8; ++k) {
    const auto response = refgen_to("n", k);
    ASSERT_TRUE(response.ok()) << k << ": " << response.status().to_string();
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(refgen_to("nowhere", i).status().code(), StatusCode::kInvalidSpec) << i;
  }

  const auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().entries, 4u);
  EXPECT_EQ(stats.value().evictions, 4u);
  EXPECT_EQ(stats.value().misses, 108u);
  EXPECT_EQ(stats.value().hits, 0u);
}

}  // namespace
}  // namespace symref::api
