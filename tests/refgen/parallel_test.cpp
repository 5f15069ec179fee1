// Determinism of the parallel evaluation layer: the thread count must never
// change a result. Samples are independent replays of one shared symbolic
// plan and every reduction runs in index order, so 1, 2 and 8 lanes must
// produce bit-identical coefficients, iteration schedules and sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "refgen/adaptive.h"
#include "support/thread_pool.h"

namespace symref::refgen {
namespace {

/// Exact (mantissa + exponent) equality of every coefficient slot, plus the
/// bookkeeping that drives the scaling schedule.
void expect_references_identical(const NumericalReference& a, const NumericalReference& b) {
  auto expect_poly = [](const PolynomialReference& x, const PolynomialReference& y) {
    ASSERT_EQ(x.order_bound(), y.order_bound());
    for (int i = 0; i <= x.order_bound(); ++i) {
      EXPECT_TRUE(x.at(i).value == y.at(i).value) << "coefficient " << i;
      EXPECT_EQ(x.at(i).status, y.at(i).status) << "coefficient " << i;
      EXPECT_EQ(x.at(i).iteration, y.at(i).iteration) << "coefficient " << i;
      EXPECT_DOUBLE_EQ(x.at(i).relative_accuracy, y.at(i).relative_accuracy)
          << "coefficient " << i;
    }
  };
  expect_poly(a.numerator(), b.numerator());
  expect_poly(a.denominator(), b.denominator());
}

void expect_runs_identical(const AdaptiveResult& a, const AdaptiveResult& b) {
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_EQ(a.total_evaluations, b.total_evaluations);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].points, b.iterations[i].points) << "iteration " << i;
    EXPECT_EQ(a.iterations[i].evaluations, b.iterations[i].evaluations) << "iteration " << i;
    EXPECT_DOUBLE_EQ(a.iterations[i].f_scale, b.iterations[i].f_scale) << "iteration " << i;
    EXPECT_DOUBLE_EQ(a.iterations[i].g_scale, b.iterations[i].g_scale) << "iteration " << i;
  }
  expect_references_identical(a.reference, b.reference);
}

AdaptiveResult run_with_threads(const netlist::Circuit& circuit, const mna::TransferSpec& spec,
                                int threads) {
  AdaptiveOptions options;
  options.threads = threads;
  return generate_reference(circuit, spec, options);
}

TEST(ParallelRefgen, Ua741CoefficientsBitIdenticalAcrossThreadCounts) {
  const auto ua = circuits::ua741();
  const auto spec = circuits::ua741_gain_spec();
  const AdaptiveResult serial = run_with_threads(ua, spec, 1);
  ASSERT_TRUE(serial.complete);
  expect_runs_identical(serial, run_with_threads(ua, spec, 2));
  expect_runs_identical(serial, run_with_threads(ua, spec, 8));
}

TEST(ParallelRefgen, Ladder128CoefficientsBitIdenticalAcrossThreadCounts) {
  const auto ladder = circuits::rc_ladder(128);
  const auto spec = circuits::rc_ladder_spec(128);
  const AdaptiveResult serial = run_with_threads(ladder, spec, 1);
  expect_runs_identical(serial, run_with_threads(ladder, spec, 2));
  expect_runs_identical(serial, run_with_threads(ladder, spec, 8));
}

TEST(ParallelRefgen, EvaluateBatchMatchesPooledEvaluateBatch) {
  // The pooled batch must agree bit-for-bit with the pool-free batch (which
  // is the literal serial loop over evaluate_in).
  const auto canonical = netlist::canonicalize(circuits::ua741());
  const mna::NodalSystem system(canonical);
  const mna::CofactorEvaluator evaluator(system, circuits::ua741_gain_spec());

  std::vector<std::complex<double>> points;
  for (int k = 0; k < 33; ++k) {
    const double angle = 2.0 * 3.14159265358979323846 * k / 64.0;
    points.emplace_back(std::cos(angle), std::sin(angle));
  }
  const auto serial = evaluator.evaluate_batch(points, 2.7e10, 283.0, nullptr);

  const mna::CofactorEvaluator pooled_evaluator(system, circuits::ua741_gain_spec());
  support::ThreadPool pool(8);
  const auto pooled = pooled_evaluator.evaluate_batch(points, 2.7e10, 283.0, &pool);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << i;
    ASSERT_TRUE(pooled[i].ok) << i;
    EXPECT_TRUE(serial[i].numerator == pooled[i].numerator) << i;
    EXPECT_TRUE(serial[i].denominator == pooled[i].denominator) << i;
    EXPECT_DOUBLE_EQ(serial[i].numerator_error, pooled[i].numerator_error) << i;
    EXPECT_DOUBLE_EQ(serial[i].denominator_error, pooled[i].denominator_error) << i;
  }
}

TEST(ParallelRefgen, EvaluateBatchMatchesSerialEvaluateLoop) {
  // No pivot degradation across these points, so the batch path (baseline
  // plan + independent replays) walks the exact FP sequence of the classic
  // evaluate() loop.
  const auto canonical = netlist::canonicalize(circuits::rc_ladder(32));
  const mna::NodalSystem system(canonical);
  const auto spec = circuits::rc_ladder_spec(32);
  const mna::CofactorEvaluator loop_evaluator(system, spec);
  const mna::CofactorEvaluator batch_evaluator(system, spec);

  std::vector<std::complex<double>> points;
  for (int k = 0; k < 17; ++k) {
    const double angle = 2.0 * 3.14159265358979323846 * k / 32.0;
    points.emplace_back(std::cos(angle), std::sin(angle));
  }
  const double f = 1e9;
  const double g = 1e-3;
  const auto batch = batch_evaluator.evaluate_batch(points, f, g, nullptr);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto sample = loop_evaluator.evaluate(points[i], f, g);
    ASSERT_TRUE(sample.ok) << i;
    ASSERT_TRUE(batch[i].ok) << i;
    EXPECT_TRUE(sample.numerator == batch[i].numerator) << i;
    EXPECT_TRUE(sample.denominator == batch[i].denominator) << i;
  }
}

TEST(ParallelRefgen, SingularFirstPointDoesNotCondemnTheBatch) {
  // Single RC to ground: Y(s) = g + s*c is singular exactly at s = -1 (unit
  // magnitude, so it is a legal sample point). A batch starting there must
  // still evaluate the healthy points via per-point fresh factorizations.
  netlist::Circuit circuit;
  circuit.add_resistor("r1", "a", "0", 1.0);
  circuit.add_capacitor("c1", "a", "0", 1.0);
  const auto canonical = netlist::canonicalize(circuit);
  const mna::NodalSystem system(canonical);
  const auto spec = mna::TransferSpec::transimpedance("a", "a");
  const mna::CofactorEvaluator evaluator(system, spec);

  const std::vector<std::complex<double>> points{{-1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const auto samples = evaluator.evaluate_batch(points, 1.0, 1.0, nullptr);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_FALSE(samples[0].ok);
  EXPECT_TRUE(samples[1].ok);
  EXPECT_TRUE(samples[2].ok);

  support::ThreadPool pool(4);
  const mna::CofactorEvaluator pooled(system, spec);
  const auto parallel = pooled.evaluate_batch(points, 1.0, 1.0, &pool);
  ASSERT_EQ(parallel.size(), 3u);
  EXPECT_FALSE(parallel[0].ok);
  EXPECT_TRUE(parallel[1].ok);
  EXPECT_TRUE(parallel[1].denominator == samples[1].denominator);
  EXPECT_TRUE(parallel[2].denominator == samples[2].denominator);
}

}  // namespace
}  // namespace symref::refgen
