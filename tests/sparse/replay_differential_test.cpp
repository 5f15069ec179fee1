// Differential oracle suite for the multi-point replay driver.
//
// replay_points() with its scalar SparseLu::refactor()/solve() kernel is the
// oracle; the batched kernel it picks automatically (and every batch
// evaluation path built on it) must reproduce its results BIT FOR BIT — no
// tolerances anywhere in this file. testing::ScopedScalarReplay forces the
// oracle kernel for the comparisons. Matrices are PatternedMatrix
// assemblies g*G + s*(f*C), evaluated at many points s exactly as sweeps and
// interpolation batches evaluate them, so the fused-assembly replay, the
// lazy group reductions and the refused-point fallback are all on the path.
// Randomized matrices and circuits are generated deterministically from a
// seed alone (support::Rng is splitmix64-seeded xoshiro256**, bit-stable
// across platforms), so every failure here is replayable from the test name.
#include "sparse/batched.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "circuits/ladder.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "sparse/lu.h"
#include "support/fault_injection.h"
#include "support/random.h"
#include "support/thread_pool.h"
#include "test_matrices.h"

namespace symref::sparse {
namespace {

using Complex = std::complex<double>;

/// Everything replay_points() hands out for one point, copied out of the
/// callback (a group point is valid only inside it).
struct SolvedPoint {
  bool ok = false;
  std::vector<Complex> x;
  numeric::ScaledComplex determinant;
  double min_pivot = 0.0;
  double max_entry = 0.0;
  double max_x = 0.0;
};

struct Replayed {
  std::vector<SolvedPoint> points;
  std::uint64_t fresh = 0;
  std::size_t batched = 0;  // replay_points' return value
};

/// One serial replay_points() run, reading every statistic of every point.
Replayed replay(const PatternedMatrix& base, const SparseLu& planned,
                std::span<const Complex> points, double f_scale, double g_scale,
                std::span<const Injection> injections, int width) {
  Replayed out;
  out.points.resize(points.size());
  out.batched = replay_points(
      base, planned, points, f_scale, g_scale, injections, &out.fresh, nullptr, width, {},
      [&](std::size_t i, const ReplayedPoint& point) {
        SolvedPoint& solved = out.points[i];
        solved.ok = point.ok();
        if (!solved.ok) return;
        for (int r = 0; r < base.matrix().dim; ++r) solved.x.push_back(point.x(r));
        solved.determinant = point.determinant();
        solved.min_pivot = point.min_abs_pivot();
        solved.max_entry = point.max_abs_entry();
        solved.max_x = point.max_abs_x();
      });
  return out;
}

/// replay() on the scalar oracle kernel.
Replayed replay_scalar(const PatternedMatrix& base, const SparseLu& planned,
                       std::span<const Complex> points, double f_scale, double g_scale,
                       std::span<const Injection> injections, int width) {
  const testing::ScopedScalarReplay scalar;
  return replay(base, planned, points, f_scale, g_scale, injections, width);
}

void expect_bitwise_equal(const numeric::ScaledComplex& a, const numeric::ScaledComplex& b) {
  EXPECT_EQ(a.mantissa(), b.mantissa());
  EXPECT_EQ(a.exponent2(), b.exponent2());
}

/// Acceptance, solution, determinant, smallest pivot, largest entry, largest
/// |x| and the fallback count, bit for bit.
void expect_same_points(const Replayed& expected, const Replayed& actual) {
  ASSERT_EQ(expected.points.size(), actual.points.size());
  EXPECT_EQ(expected.fresh, actual.fresh);
  for (std::size_t i = 0; i < expected.points.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "point=" << i);
    const SolvedPoint& a = expected.points[i];
    const SolvedPoint& b = actual.points[i];
    ASSERT_EQ(a.ok, b.ok);
    if (!a.ok) continue;
    expect_bitwise_equal(a.determinant, b.determinant);
    EXPECT_EQ(a.min_pivot, b.min_pivot);
    EXPECT_EQ(a.max_entry, b.max_entry);
    EXPECT_EQ(a.max_x, b.max_x);
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t r = 0; r < a.x.size(); ++r) EXPECT_EQ(a.x[r], b.x[r]) << "r=" << r;
  }
}

/// A random real injection into every row, plus one into ground (skipped).
std::vector<Injection> random_injections(support::Rng& rng, int n) {
  std::vector<Injection> injections{{-1, 5.0}};
  for (int r = 0; r < n; ++r) injections.push_back({r, rng.uniform(-1, 1)});
  return injections;
}

/// Points near s = i, where test::random_entries() reads as its complex
/// entries: the replays of a plan factored there stay acceptable.
std::vector<Complex> points_near_i(support::Rng& rng, std::size_t count) {
  std::vector<Complex> points;
  for (std::size_t k = 0; k < count; ++k) {
    points.emplace_back(rng.uniform(-0.1, 0.1), rng.uniform(0.8, 1.2));
  }
  return points;
}

/// The core differential check: a full group of `width` points and a
/// partial one, replayed on both kernels against a plan factored at s = i.
void run_matrix_differential(std::uint64_t seed, int n, int width) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n << " width=" << width);
  support::Rng rng(seed);
  PatternedMatrix base(n, test::random_entries(rng, n, 4.0 / n));
  SparseLu planned;
  ASSERT_TRUE(planned.factor(PatternedMatrix(base).assemble(test::kI)));
  const std::vector<Complex> points =
      points_near_i(rng, static_cast<std::size_t>(width + width / 2 + 1));
  const std::vector<Injection> injections = random_injections(rng, n);
  const double f_scale = 1.25;
  const double g_scale = 0.75;

  const Replayed oracle =
      replay_scalar(base, planned, points, f_scale, g_scale, injections, width);
  const Replayed batched = replay(base, planned, points, f_scale, g_scale, injections, width);
  EXPECT_EQ(oracle.batched, 0u);
  EXPECT_EQ(batched.batched, points.size());
  expect_same_points(oracle, batched);
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
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_w";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(ReplayPoints, PartialGroupsMatchAtEveryWidth) {
  // 11 points: width 8 runs a full group and a partial group of 3, width 2
  // five pairs and a single, width 1 eleven singles. A point's bits must not
  // depend on the group width or on how many lanes of its group are active.
  support::Rng rng(777);
  const int n = 40;
  PatternedMatrix base(n, test::random_entries(rng, n, 0.12));
  SparseLu planned;
  ASSERT_TRUE(planned.factor(PatternedMatrix(base).assemble(test::kI)));
  const std::vector<Complex> points = points_near_i(rng, 11);
  const std::vector<Injection> injections = random_injections(rng, n);

  const Replayed solo = replay(base, planned, points, 1.0, 1.0, injections, 1);
  EXPECT_EQ(solo.batched, points.size());
  for (const int width : {8, 2}) {
    SCOPED_TRACE(::testing::Message() << "width=" << width);
    expect_same_points(solo, replay(base, planned, points, 1.0, 1.0, injections, width));
  }
  expect_same_points(solo, replay_scalar(base, planned, points, 1.0, 1.0, injections, 8));
}

TEST(ReplayPoints, RefusedPointFallsBackIdenticallyAndOthersSurvive) {
  // The plan's first pivot entry is stamped {a, -a}, so at the poisoned
  // point s = 1 it assembles to exactly zero: both kernels must refuse that
  // replay and factor the point afresh, while every healthy point in the
  // same batched group keeps its bits.
  support::Rng rng(4242);
  const int n = 24;
  std::vector<PatternStamp> entries = test::random_entries(rng, n, 0.15);
  SparseLu planned;
  ASSERT_TRUE(planned.factor(test::at_i(n, entries)));
  const int pivot_row = planned.plan()->row_order[0];
  const int pivot_col = planned.plan()->col_order[0];
  for (PatternStamp& stamp : entries) {
    if (stamp.row == pivot_row && stamp.col == pivot_col) stamp.capacitance = -stamp.conductance;
  }
  const PatternedMatrix base(n, entries);
  ASSERT_TRUE(planned.plan()->matches(base.matrix()));

  std::vector<Complex> points = points_near_i(rng, 5);
  points.insert(points.begin() + 2, Complex(1.0, 0.0));
  const std::vector<Injection> injections = random_injections(rng, n);

  SparseLu scalar = planned;
  ASSERT_FALSE(scalar.refactor(PatternedMatrix(base).assemble(Complex(1.0, 0.0))));

  const Replayed oracle = replay_scalar(base, planned, points, 1.0, 1.0, injections, 3);
  const Replayed batched = replay(base, planned, points, 1.0, 1.0, injections, 3);
  EXPECT_EQ(oracle.fresh, 1u);
  EXPECT_TRUE(oracle.points[2].ok);  // the fallback factored it
  expect_same_points(oracle, batched);
}

TEST(ReplayPoints, DeterminantsOutsideTheFoldWindowMatch) {
  // The batched determinant accumulates in double and folds into the
  // extended range whenever it leaves the (2^-256, 2^256) window. Rows
  // scaled by 10^-90 .. 10^90 put single pivots outside the window (such a
  // lane is recomputed through numeric::scaled_pivot_product); rows all
  // scaled by 1e-12 keep every pivot inside it but drive the running
  // product out of it every few steps. Both must match the scalar
  // determinant bit for bit.
  const int n = 33;
  for (const bool spread_rows : {true, false}) {
    SCOPED_TRACE(spread_rows ? "spread rows" : "uniform rows");
    support::Rng rng(9090);
    std::vector<PatternStamp> entries = test::random_entries(rng, n, 4.0 / n);
    for (PatternStamp& stamp : entries) {
      const double scale =
          spread_rows ? std::pow(10.0, -90.0 + 180.0 * stamp.row / (n - 1)) : 1e-12;
      stamp.conductance *= scale;
      stamp.capacitance *= scale;
    }
    const PatternedMatrix base(n, entries);
    SparseLu planned;
    ASSERT_TRUE(planned.factor(PatternedMatrix(base).assemble(test::kI)));
    const std::vector<Complex> points = points_near_i(rng, 12);
    const std::vector<Injection> injections = random_injections(rng, n);

    const Replayed oracle = replay_scalar(base, planned, points, 1.0, 1.0, injections, 8);
    const Replayed batched = replay(base, planned, points, 1.0, 1.0, injections, 8);
    for (const SolvedPoint& point : oracle.points) {
      ASSERT_TRUE(point.ok);
      if (spread_rows) {
        EXPECT_LT(point.min_pivot, 0x1p-256);  // a pivot below the window: recomputed
      } else {
        EXPECT_LT(point.determinant.exponent2(), -1000);  // the running product folded
      }
    }
    expect_same_points(oracle, batched);
  }
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
