// Differential oracle suite for the batched supernodal replay kernel.
//
// The scalar SparseLu::refactor()/solve() path is the oracle; BatchedReplay
// (and every batch evaluation path, which picks it automatically) must
// reproduce its results BIT FOR BIT — no tolerances anywhere in this file.
// testing::ScopedScalarReplay forces the oracle path for the comparisons.
// Randomized matrices and circuits are generated deterministically from a
// seed alone (support::Rng is splitmix64-seeded xoshiro256**, bit-stable
// across platforms), so every failure here is replayable from the test name.
#include "sparse/batched.h"

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "circuits/ladder.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "sparse/lu.h"
#include "support/fault_injection.h"
#include "support/random.h"
#include "support/thread_pool.h"

namespace symref::sparse {
namespace {

using Complex = std::complex<double>;

/// Sparse circuit-like matrix (strong diagonal, ~4 off-diagonal entries per
/// row), deterministic in (rng state, n) alone.
TripletMatrix random_matrix(support::Rng& rng, int n, double density) {
  TripletMatrix m(n);
  for (int i = 0; i < n; ++i) {
    m.add(i, i, {rng.uniform(1.0, 2.0) * rng.sign(), rng.uniform(-0.5, 0.5)});
  }
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      if (rng.next_double() < density) {
        m.add(r, c, {rng.uniform(-1, 1), rng.uniform(-1, 1)});
      }
    }
  }
  return m;
}

std::vector<Complex> random_vector(support::Rng& rng, int n) {
  std::vector<Complex> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

/// Same pattern, independently perturbed values — one replay "lane".
CompressedMatrix perturb_values(support::Rng& rng, const CompressedMatrix& base) {
  CompressedMatrix out = base;
  for (auto& value : out.values) {
    value *= Complex(rng.uniform(0.9, 1.1), rng.uniform(-0.05, 0.05));
  }
  return out;
}

void expect_bitwise_equal(const numeric::ScaledComplex& a, const numeric::ScaledComplex& b) {
  EXPECT_EQ(a.mantissa(), b.mantissa());
  EXPECT_EQ(a.exponent2(), b.exponent2());
}

/// The core differential check: `width` perturbed value sets of one pattern,
/// replayed scalar (the oracle) and batched, must agree bit for bit on
/// acceptance, determinant, min-pivot, max-entry and every solve component.
void run_matrix_differential(std::uint64_t seed, int n, int width) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n << " width=" << width);
  support::Rng rng(seed);
  const TripletMatrix base = random_matrix(rng, n, 4.0 / n);
  const CompressedMatrix pattern = base.compress();
  SparseLu lu;
  ASSERT_TRUE(lu.factor(pattern));
  const std::shared_ptr<const ReplayPlan> plan = lu.plan();
  ASSERT_NE(plan, nullptr);

  std::vector<CompressedMatrix> lanes;
  for (int l = 0; l < width; ++l) lanes.push_back(perturb_values(rng, pattern));
  const std::vector<Complex> b = random_vector(rng, n);

  // Scalar oracle, one lane at a time on a clone sharing the plan.
  struct Oracle {
    bool ok = false;
    numeric::ScaledComplex det;
    double min_pivot = 0.0;
    double max_entry = 0.0;
    std::vector<Complex> x;
  };
  std::vector<Oracle> oracle(static_cast<std::size_t>(width));
  for (int l = 0; l < width; ++l) {
    SparseLu clone = lu;
    Oracle& out = oracle[static_cast<std::size_t>(l)];
    out.ok = clone.refactor(lanes[static_cast<std::size_t>(l)]);
    if (!out.ok) continue;
    out.det = clone.determinant();
    out.min_pivot = clone.min_abs_pivot();
    out.max_entry = clone.max_abs_entry();
    out.x = b;
    clone.solve(out.x);
  }

  BatchedReplay replay;
  replay.bind(plan, width);
  ASSERT_TRUE(replay.plan()->matches(lanes.front()));
  ASSERT_EQ(replay.pattern_nonzeros(), pattern.values.size());
  for (std::size_t k = 0; k < pattern.values.size(); ++k) {
    for (int l = 0; l < width; ++l) {
      replay.values()[k * static_cast<std::size_t>(width) + static_cast<std::size_t>(l)] =
          lanes[static_cast<std::size_t>(l)].values[k];
    }
  }
  replay.replay(width);
  std::vector<Complex> rhs(static_cast<std::size_t>(n) * static_cast<std::size_t>(width));
  for (int r = 0; r < n; ++r) {
    for (int l = 0; l < width; ++l) {
      rhs[static_cast<std::size_t>(r) * static_cast<std::size_t>(width) +
          static_cast<std::size_t>(l)] = b[static_cast<std::size_t>(r)];
    }
  }
  replay.solve(rhs, width);

  for (int l = 0; l < width; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane=" << l);
    const Oracle& expected = oracle[static_cast<std::size_t>(l)];
    ASSERT_EQ(replay.lane_ok(l), expected.ok);
    if (!expected.ok) continue;
    expect_bitwise_equal(replay.determinant(l), expected.det);
    EXPECT_EQ(replay.min_abs_pivot(l), expected.min_pivot);
    EXPECT_EQ(replay.max_abs_entry(l), expected.max_entry);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(rhs[static_cast<std::size_t>(r) * static_cast<std::size_t>(width) +
                    static_cast<std::size_t>(l)],
                expected.x[static_cast<std::size_t>(r)])
          << "r=" << r;
    }
  }
}

class ReplayDifferential : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplayDifferential, BatchedMatchesScalarBitForBit) {
  const auto [n, width] = GetParam();
  // Two independent seeds per configuration; the seed derivation keeps every
  // (n, width) cell on its own reproducible stream.
  run_matrix_differential(0x5eedu + static_cast<std::uint64_t>(n) * 131u +
                              static_cast<std::uint64_t>(width),
                          n, width);
  run_matrix_differential(0xc0ffeeu + static_cast<std::uint64_t>(n) * 131u +
                              static_cast<std::uint64_t>(width),
                          n, width);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, ReplayDifferential,
    ::testing::Combine(::testing::Values(8, 16, 33, 64, 128, 512),
                       ::testing::Values(1, 3, 8, 33)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BatchedReplay, PartialGroupMatchesFullWidthLanes) {
  // active < width: only the filled lanes run; their bits must not depend on
  // the bound width or on how many lanes are active.
  support::Rng rng(777);
  const int n = 40;
  const TripletMatrix base = random_matrix(rng, n, 0.12);
  const CompressedMatrix pattern = base.compress();
  SparseLu lu;
  ASSERT_TRUE(lu.factor(pattern));

  const CompressedMatrix lane0 = perturb_values(rng, pattern);
  const CompressedMatrix lane1 = perturb_values(rng, pattern);
  const std::vector<Complex> b = random_vector(rng, n);

  auto run = [&](int width, int active) {
    BatchedReplay replay;
    replay.bind(lu.plan(), width);
    const CompressedMatrix* mats[2] = {&lane0, &lane1};
    for (std::size_t k = 0; k < pattern.values.size(); ++k) {
      for (int l = 0; l < active; ++l) {
        replay.values()[k * static_cast<std::size_t>(width) + static_cast<std::size_t>(l)] =
            mats[l]->values[k];
      }
    }
    replay.replay(active);
    std::vector<Complex> rhs(static_cast<std::size_t>(n) * static_cast<std::size_t>(width));
    for (int r = 0; r < n; ++r) {
      for (int l = 0; l < active; ++l) {
        rhs[static_cast<std::size_t>(r) * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(l)] = b[static_cast<std::size_t>(r)];
      }
    }
    replay.solve(rhs, active);
    std::vector<Complex> lane0_solution(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      lane0_solution[static_cast<std::size_t>(r)] =
          rhs[static_cast<std::size_t>(r) * static_cast<std::size_t>(width)];
    }
    EXPECT_TRUE(replay.lane_ok(0));
    return std::make_pair(replay.determinant(0), lane0_solution);
  };

  const auto [det_wide, x_wide] = run(8, 2);    // partial group, wide lanes
  const auto [det_tight, x_tight] = run(2, 2);  // exact-width group
  const auto [det_solo, x_solo] = run(1, 1);    // degenerate single lane
  expect_bitwise_equal(det_wide, det_tight);
  expect_bitwise_equal(det_wide, det_solo);
  EXPECT_EQ(x_wide, x_tight);
  EXPECT_EQ(x_wide, x_solo);
}

TEST(BatchedReplay, RefusedLaneMatchesScalarRefusalAndOthersSurvive) {
  // One lane's pivot collapses (the lu_test degradation pattern scaled up):
  // that lane must refuse exactly where the scalar replay refuses, while
  // every healthy lane's bits are unaffected by its garbage neighbor.
  support::Rng rng(4242);
  const int n = 24;
  const TripletMatrix base = random_matrix(rng, n, 0.15);
  const CompressedMatrix pattern = base.compress();
  SparseLu lu;
  ASSERT_TRUE(lu.factor(pattern));

  CompressedMatrix healthy = perturb_values(rng, pattern);
  CompressedMatrix poisoned = healthy;
  // Collapse every value of one row-ish stretch towards zero while blowing
  // up another entry: the relaxed replay threshold must trip.
  for (std::size_t k = 0; k < poisoned.values.size(); ++k) {
    poisoned.values[k] *= (k % 7 == 0) ? Complex(1e30, 0.0) : Complex(1e-30, 0.0);
  }

  SparseLu scalar_healthy = lu;
  ASSERT_TRUE(scalar_healthy.refactor(healthy));
  SparseLu scalar_poisoned = lu;
  const bool poisoned_accepted = scalar_poisoned.refactor(poisoned);

  const int width = 3;
  BatchedReplay replay;
  replay.bind(lu.plan(), width);
  for (std::size_t k = 0; k < pattern.values.size(); ++k) {
    replay.values()[k * width + 0] = healthy.values[k];
    replay.values()[k * width + 1] = poisoned.values[k];
    replay.values()[k * width + 2] = healthy.values[k];
  }
  replay.replay(width);
  EXPECT_TRUE(replay.lane_ok(0));
  EXPECT_EQ(replay.lane_ok(1), poisoned_accepted);
  EXPECT_TRUE(replay.lane_ok(2));
  expect_bitwise_equal(replay.determinant(0), scalar_healthy.determinant());
  expect_bitwise_equal(replay.determinant(2), scalar_healthy.determinant());
}

// --- Evaluator-level differential: replay paths, widths and thread counts ---

using mna::CofactorEvaluator;

void expect_samples_bitwise_equal(const std::vector<CofactorEvaluator::Sample>& a,
                                  const std::vector<CofactorEvaluator::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point=" << i);
    EXPECT_EQ(a[i].ok, b[i].ok);
    if (!a[i].ok || !b[i].ok) continue;
    EXPECT_EQ(a[i].numerator.mantissa(), b[i].numerator.mantissa());
    EXPECT_EQ(a[i].numerator.exponent2(), b[i].numerator.exponent2());
    EXPECT_EQ(a[i].denominator.mantissa(), b[i].denominator.mantissa());
    EXPECT_EQ(a[i].denominator.exponent2(), b[i].denominator.exponent2());
    EXPECT_EQ(a[i].numerator_error, b[i].numerator_error);
    EXPECT_EQ(a[i].denominator_error, b[i].denominator_error);
  }
}

std::vector<Complex> probe_grid(int points) {
  // Unit-circle-ish scaled frequencies, the engine's working regime.
  std::vector<Complex> s;
  for (int k = 0; k < points; ++k) {
    const double t = 0.05 + 0.9 * static_cast<double>(k) / static_cast<double>(points);
    s.emplace_back(-0.1 * t, t);
  }
  return s;
}

TEST(EvaluatorDifferential, BatchMatchesScalarAcrossWidthsAndThreads) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    support::Rng rng(seed);
    circuits::RandomRcOptions options;
    options.nodes = 12;
    options.extra_resistors = 10;
    options.capacitors = 9;
    const netlist::Circuit circuit = circuits::random_rc(rng, options);
    const netlist::Circuit canonical = netlist::canonicalize(circuit);
    const mna::NodalSystem system(canonical);
    const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("n1", "n12");
    const CofactorEvaluator evaluator(system, spec);

    const std::vector<Complex> points = probe_grid(37);
    std::vector<CofactorEvaluator::Sample> oracle;
    {
      const testing::ScopedScalarReplay scalar;
      oracle = evaluator.evaluate_batch(points, 1.0, 1.0);  // scalar, serial
      for (const int threads : {1, 2, 8}) {
        support::ThreadPool pool(threads);
        expect_samples_bitwise_equal(oracle, evaluator.evaluate_batch(points, 1.0, 1.0, &pool));
      }
    }
    EXPECT_EQ(evaluator.batched_lane_count(), 0u);

    for (const int threads : {1, 2, 8}) {
      support::ThreadPool pool(threads);
      for (const int width : {1, 3, 8, 33}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads << " width=" << width);
        const std::vector<CofactorEvaluator::Sample> batched =
            evaluator.evaluate_batch(points, 1.0, 1.0, &pool, width);
        expect_samples_bitwise_equal(oracle, batched);
      }
    }
    EXPECT_GT(evaluator.batched_lane_count(), 0u);
  }
}

TEST(EvaluatorDifferential, PinnedBatchMatchesScalarWithEqualCounters) {
  // The parameter-sweep path: results AND the robustness counter
  // (fresh_factor_count) must be identical on either replay path — the
  // engine-stats half of the oracle contract.
  const netlist::Circuit circuit = circuits::rc_ladder(24);
  const netlist::Circuit canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  const CofactorEvaluator base(system, circuits::rc_ladder_spec(24));
  const std::vector<Complex> points = probe_grid(41);
  (void)base.evaluate(points.front(), 1.0, 1.0);  // establish the pinned plan

  const CofactorEvaluator scalar_eval = base;
  const CofactorEvaluator batched_eval = base;
  std::vector<CofactorEvaluator::Sample> scalar_samples;
  {
    const testing::ScopedScalarReplay scalar;
    scalar_samples = scalar_eval.evaluate_pinned_batch(points, 1.0, 1.0);
  }
  const auto batched_samples = batched_eval.evaluate_pinned_batch(points, 1.0, 1.0, 8);
  expect_samples_bitwise_equal(scalar_samples, batched_samples);
  EXPECT_EQ(scalar_eval.fresh_factor_count(), batched_eval.fresh_factor_count());
  EXPECT_EQ(scalar_eval.batched_lane_count(), 0u);
  EXPECT_EQ(batched_eval.batched_lane_count(), points.size());
  EXPECT_GT(batched_eval.supernode_count(), 0u);
}

/// Process-global fault injector: start and end disarmed.
class ReplayFaultParity : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }
};

TEST_F(ReplayFaultParity, InjectedPivotFaultsDrawIdenticallyOnBothPaths) {
  // The "lu_pivot" site is consulted once per point on BOTH replay paths
  // (the batched path draws once per active lane, in lane order). With a
  // probabilistic fault the two paths therefore consume the same draw
  // stream, refuse the same points, fall back identically — results and
  // counters must match bit for bit.
  const netlist::Circuit circuit = circuits::rc_ladder(16);
  const netlist::Circuit canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  const CofactorEvaluator base(system, circuits::rc_ladder_spec(16));
  const std::vector<Complex> points = probe_grid(29);
  (void)base.evaluate(points.front(), 1.0, 1.0);

  for (const char* config : {"lu_pivot:1", "lu_pivot:0.4:99"}) {
    SCOPED_TRACE(config);
    const CofactorEvaluator scalar_eval = base;
    const CofactorEvaluator batched_eval = base;

    std::vector<CofactorEvaluator::Sample> scalar_samples;
    {
      const testing::ScopedScalarReplay scalar;
      ASSERT_TRUE(support::FaultInjector::instance().configure(config));
      scalar_samples = scalar_eval.evaluate_pinned_batch(points, 1.0, 1.0);
      support::FaultInjector::instance().reset();
    }

    ASSERT_TRUE(support::FaultInjector::instance().configure(config));
    const auto batched_samples = batched_eval.evaluate_pinned_batch(points, 1.0, 1.0, 8);
    support::FaultInjector::instance().reset();

    expect_samples_bitwise_equal(scalar_samples, batched_samples);
    EXPECT_EQ(scalar_eval.fresh_factor_count(), batched_eval.fresh_factor_count());
      EXPECT_GT(batched_eval.fresh_factor_count(), 0u);  // faults actually fired
  }
}

}  // namespace
}  // namespace symref::sparse
