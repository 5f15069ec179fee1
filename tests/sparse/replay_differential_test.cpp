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
// Point counts from 1 to 40 leave the 16-lane groups partly filled, full
// and spilling into the next group, and the structured shapes (diagonal,
// dense, tridiagonal, arrowhead, circuit matrices) give the elimination its
// extreme fill patterns.
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
#include "circuits/ua741.h"
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
                std::span<const Injection> injections) {
  Replayed out;
  out.points.resize(points.size());
  out.batched = replay_points(
      base, planned, points, f_scale, g_scale, injections, &out.fresh, nullptr, {},
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
                       std::span<const Injection> injections) {
  const testing::ScopedScalarReplay scalar;
  return replay(base, planned, points, f_scale, g_scale, injections);
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

/// The core differential check: `points` replayed on both kernels against
/// the plan of `base` factored at `plan_point`, with every point and its
/// statistics compared bit for bit.
void expect_kernels_agree(const PatternedMatrix& base, Complex plan_point,
                          const std::vector<Complex>& points, double f_scale, double g_scale,
                          support::Rng& rng) {
  SparseLu planned;
  ASSERT_TRUE(planned.factor(PatternedMatrix(base).assemble(plan_point, f_scale, g_scale)));
  const std::vector<Injection> injections = random_injections(rng, base.matrix().dim);
  const Replayed oracle = replay_scalar(base, planned, points, f_scale, g_scale, injections);
  const Replayed batched = replay(base, planned, points, f_scale, g_scale, injections);
  EXPECT_EQ(oracle.batched, 0u);
  EXPECT_EQ(batched.batched, points.size());
  expect_same_points(oracle, batched);
}

void run_matrix_differential(std::uint64_t seed, int n, int count) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n << " points=" << count);
  support::Rng rng(seed);
  const PatternedMatrix base(n, test::random_entries(rng, n, 4.0 / n));
  const std::vector<Complex> points = points_near_i(rng, static_cast<std::size_t>(count));
  expect_kernels_agree(base, test::kI, points, 1.25, 0.75, rng);
}

class ReplayDifferential : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplayDifferential, BatchedMatchesScalarBitForBit) {
  const auto [n, count] = GetParam();
  // Two independent seeds per configuration; the seed derivation keeps every
  // (n, count) cell on its own reproducible stream.
  run_matrix_differential(0x5eedu + static_cast<std::uint64_t>(n) * 131u +
                              static_cast<std::uint64_t>(count),
                          n, count);
  run_matrix_differential(0xc0ffeeu + static_cast<std::uint64_t>(n) * 131u +
                              static_cast<std::uint64_t>(count),
                          n, count);
}

// Point counts cover one lane, a partial group, a full 16-lane group, one
// lane past it, and two or three groups with partial tails.
INSTANTIATE_TEST_SUITE_P(
    SizesAndPointCounts, ReplayDifferential,
    ::testing::Combine(::testing::Values(8, 16, 33, 64, 128, 512),
                       ::testing::Values(1, 3, 15, 16, 17, 33, 40)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_p";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

/// A structured shape: n x n stamps whose complex entries a + ib read back
/// at s = i (test::entry).
struct Shape {
  std::string name;
  int n = 0;
  std::vector<PatternStamp> entries;
};

std::vector<Shape> structured_shapes() {
  std::vector<Shape> shapes;
  // Diagonal: no elimination update at all.
  Shape diagonal{"diagonal", 12, {}};
  for (int i = 0; i < diagonal.n; ++i) {
    diagonal.entries.push_back(test::entry(i, i, {1.5 + i, -0.25}));
  }
  shapes.push_back(std::move(diagonal));
  // Dense 10x10: every step updates every later one.
  support::Rng rng(7);
  Shape dense{"dense", 10, {}};
  for (int r = 0; r < dense.n; ++r) {
    for (int c = 0; c < dense.n; ++c) {
      const double diag = r == c ? 4.0 : 0.0;
      dense.entries.push_back(test::entry(r, c, {diag + rng.uniform(-1, 1), rng.uniform(-1, 1)}));
    }
  }
  shapes.push_back(std::move(dense));
  // Tridiagonal: Markowitz keeps it fill-free.
  Shape tridiagonal{"tridiagonal", 20, {}};
  for (int i = 0; i < tridiagonal.n; ++i) {
    tridiagonal.entries.push_back(test::entry(i, i, {4.0, 0.5}));
    if (i > 0) {
      tridiagonal.entries.push_back(test::entry(i, i - 1, {-1.0, 0.1}));
      tridiagonal.entries.push_back(test::entry(i - 1, i, {-1.0, -0.1}));
    }
  }
  shapes.push_back(std::move(tridiagonal));
  // Arrowhead: a dense last row and column on a diagonal.
  Shape arrowhead{"arrowhead", 14, {}};
  for (int i = 0; i < arrowhead.n; ++i) {
    arrowhead.entries.push_back(test::entry(i, i, {3.0 + i, 0.0}));
  }
  for (int i = 0; i + 1 < arrowhead.n; ++i) {
    arrowhead.entries.push_back(test::entry(arrowhead.n - 1, i, {0.5, 0.1}));
    arrowhead.entries.push_back(test::entry(i, arrowhead.n - 1, {0.5, -0.1}));
  }
  shapes.push_back(std::move(arrowhead));
  // 1x1: a plan of one step.
  shapes.push_back({"single", 1, {test::entry(0, 0, {2.0, 0.5})}});
  // Random patterns of growing size and fill.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (const int n : {8, 17, 33, 64, 120}) {
      support::Rng random(seed * 7919u + static_cast<std::uint64_t>(n));
      shapes.push_back({"random seed=" + std::to_string(seed) + " n=" + std::to_string(n), n,
                        test::random_entries(random, n, 6.0 / n)});
    }
  }
  return shapes;
}

TEST(ReplayShapes, BatchedMatchesScalarOnStructuredShapes) {
  support::Rng rng(2024);
  for (const Shape& shape : structured_shapes()) {
    SCOPED_TRACE(shape.name);
    const PatternedMatrix base(shape.n, shape.entries);
    expect_kernels_agree(base, test::kI, points_near_i(rng, 19), 1.0, 1.0, rng);
  }
}

TEST(ReplayShapes, BatchedMatchesScalarOnCircuitMatrices) {
  // RC ladders (fill-free chains) and the uA741 (genuine fill-in), assembled
  // from their stamp tables at the scaled points the engine samples.
  support::Rng rng(741);
  const auto check = [&](const netlist::Circuit& circuit, double f_scale, double g_scale) {
    const netlist::Circuit canonical = netlist::canonicalize(circuit);
    const mna::NodalSystem system(canonical);
    const PatternedMatrix base(system.dim(), system.stamps());
    std::vector<Complex> points;
    for (int k = 0; k < 21; ++k) {
      const double angle = 0.1 + 2.9 * k / 21.0;
      points.emplace_back(std::cos(angle), std::sin(angle));
    }
    expect_kernels_agree(base, {0.3, 0.95}, points, f_scale, g_scale, rng);
  };
  for (const int stages : {8, 32, 96}) {
    SCOPED_TRACE(::testing::Message() << "ladder stages=" << stages);
    check(circuits::rc_ladder(stages), 1e9, 1e-3);
  }
  SCOPED_TRACE("ua741");
  check(circuits::ua741(), 1.0, 1.0);
}

TEST(ReplayPoints, LanesAreIndependentOfTheirGroup) {
  // 11 points replayed in one call share one batched group; replayed one per
  // call, each runs alone. A point's bits must not depend on how many lanes
  // of its group are active or on what the other lanes hold.
  support::Rng rng(777);
  const int n = 40;
  PatternedMatrix base(n, test::random_entries(rng, n, 0.12));
  SparseLu planned;
  ASSERT_TRUE(planned.factor(PatternedMatrix(base).assemble(test::kI)));
  const std::vector<Complex> points = points_near_i(rng, 11);
  const std::vector<Injection> injections = random_injections(rng, n);

  const Replayed grouped = replay(base, planned, points, 1.0, 1.0, injections);
  EXPECT_EQ(grouped.batched, points.size());
  Replayed alone;
  for (const Complex& point : points) {
    const Replayed one = replay(base, planned, std::span(&point, 1), 1.0, 1.0, injections);
    EXPECT_EQ(one.batched, 1u);
    alone.points.push_back(one.points.front());
    alone.fresh += one.fresh;
  }
  expect_same_points(grouped, alone);
  expect_same_points(grouped, replay_scalar(base, planned, points, 1.0, 1.0, injections));
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

  const Replayed oracle = replay_scalar(base, planned, points, 1.0, 1.0, injections);
  const Replayed batched = replay(base, planned, points, 1.0, 1.0, injections);
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

    const Replayed oracle = replay_scalar(base, planned, points, 1.0, 1.0, injections);
    const Replayed batched = replay(base, planned, points, 1.0, 1.0, injections);
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

// --- Evaluator-level differential: replay paths and thread counts ----------

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

TEST(EvaluatorDifferential, BatchMatchesScalarAcrossThreads) {
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

    expect_samples_bitwise_equal(oracle, evaluator.evaluate_batch(points, 1.0, 1.0));
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      support::ThreadPool pool(threads);
      expect_samples_bitwise_equal(oracle, evaluator.evaluate_batch(points, 1.0, 1.0, &pool));
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
  const auto batched_samples = batched_eval.evaluate_pinned_batch(points, 1.0, 1.0);
  expect_samples_bitwise_equal(scalar_samples, batched_samples);
  EXPECT_EQ(scalar_eval.fresh_factor_count(), batched_eval.fresh_factor_count());
  EXPECT_EQ(scalar_eval.batched_lane_count(), 0u);
  EXPECT_EQ(batched_eval.batched_lane_count(), points.size());
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
    const auto batched_samples = batched_eval.evaluate_pinned_batch(points, 1.0, 1.0);
    support::FaultInjector::instance().reset();

    expect_samples_bitwise_equal(scalar_samples, batched_samples);
    EXPECT_EQ(scalar_eval.fresh_factor_count(), batched_eval.fresh_factor_count());
    EXPECT_GT(batched_eval.fresh_factor_count(), 0u);  // faults actually fired
  }
}

}  // namespace
}  // namespace symref::sparse
