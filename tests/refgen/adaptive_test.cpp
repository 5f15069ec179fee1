// The adaptive scaling engine — the paper's core algorithm.
#include "refgen/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/filters.h"
#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "refgen/validate.h"
#include "symbolic/det.h"

namespace symref::refgen {
namespace {

using numeric::ScaledDouble;

/// Exact symbolic oracle: denominator coefficients of the transimpedance of
/// a small canonical circuit (D = full determinant).
numeric::Polynomial<ScaledDouble> oracle_determinant(const netlist::Circuit& canonical) {
  const symbolic::SymbolicNodalMatrix matrix(canonical);
  return symbolic_determinant(matrix).coefficients(matrix.symbols());
}

TEST(Adaptive, LadderCoefficientsMatchSymbolicOracle) {
  for (const int n : {2, 3, 5, 7}) {
    const netlist::Circuit ladder = circuits::rc_ladder(n);
    const netlist::Circuit canonical = netlist::canonicalize(ladder);
    const auto spec =
        mna::TransferSpec::transimpedance("in", std::string("n").append(std::to_string(n)));
    const AdaptiveResult result = generate_reference(ladder, spec);
    ASSERT_TRUE(result.complete) << "n=" << n << " " << result.termination;

    const auto oracle = oracle_determinant(canonical);
    const auto& den = result.reference.denominator();
    ASSERT_EQ(den.order_bound(), n) << n;
    for (int i = 0; i <= n; ++i) {
      EXPECT_LT(numeric::relative_difference(den.at(i).value,
                                             oracle.coeff(static_cast<std::size_t>(i))),
                1e-6)
          << "n=" << n << " coeff " << i;
    }
  }
}

TEST(Adaptive, OtaAgainstSymbolicOracle) {
  const netlist::Circuit ota = circuits::ota_fig1();
  const netlist::Circuit canonical = netlist::canonicalize(ota);
  const symbolic::SymbolicNodalMatrix matrix(canonical);
  const auto transfer = symbolic_transfer(matrix, circuits::ota_fig1_gain_spec());
  const auto num_oracle = transfer.numerator.coefficients(matrix.symbols());
  const auto den_oracle = transfer.denominator.coefficients(matrix.symbols());

  const AdaptiveResult result =
      generate_reference(ota, circuits::ota_fig1_gain_spec());
  ASSERT_TRUE(result.complete) << result.termination;

  for (int i = 0; i <= result.reference.denominator().order_bound(); ++i) {
    const auto& c = result.reference.denominator().at(i);
    const ScaledDouble expected = den_oracle.coeff(static_cast<std::size_t>(i));
    if (c.status == CoefficientStatus::ZeroTail) {
      // Declared negligible: the oracle value must indeed be ~0 relative to
      // the largest coefficient's scale at any observable window.
      if (!expected.is_zero() && !den_oracle.coeff(0).is_zero()) {
        // allow structurally-zero or deeply negligible
        EXPECT_LT(expected.abs().log10_abs() - den_oracle.coeff(0).abs().log10_abs(),
                  200.0);
      }
      continue;
    }
    EXPECT_LT(numeric::relative_difference(c.value, expected), 1e-5) << "den " << i;
  }
  for (int i = 0; i <= result.reference.numerator().order_bound(); ++i) {
    const auto& c = result.reference.numerator().at(i);
    if (c.status != CoefficientStatus::Interpolated) continue;
    EXPECT_LT(numeric::relative_difference(c.value,
                                           num_oracle.coeff(static_cast<std::size_t>(i))),
              1e-5)
        << "num " << i;
  }
}

TEST(Adaptive, InitialScaleHeuristicIsInverseMean) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3, 2e3, 5e-12));
  const mna::NodalSystem system(ladder);
  const AdaptiveScalingEngine engine(system, circuits::rc_ladder_spec(3));
  const auto [f, g] = engine.initial_scales();
  EXPECT_NEAR(f, 1.0 / 5e-12, 1e-3 / 5e-12);
  EXPECT_NEAR(g, 2e3 / 1.0, 1.0);  // mean conductance = 1/2k -> g = 2k
}

TEST(Adaptive, Ua741CompletesWithPaperLikeSchedule) {
  const netlist::Circuit ua = circuits::ua741();
  const AdaptiveResult result = generate_reference(ua, circuits::ua741_gain_spec());
  ASSERT_TRUE(result.complete) << result.termination;

  // Shape of the paper's Table 2/3 story: several interpolations, each
  // exposing a contiguous region; the denominator needs >= 3 productive ones.
  int productive = 0;
  for (const auto& it : result.iterations) {
    if (it.den_new_coefficients > 0) ++productive;
  }
  EXPECT_GE(productive, 3);
  EXPECT_LE(static_cast<int>(result.iterations.size()), 20);

  // §3.3: deflation must shrink the interpolation point count as the
  // low-order run completes.
  int min_points = result.iterations.front().points;
  for (const auto& it : result.iterations) min_points = std::min(min_points, it.points);
  EXPECT_LT(min_points, result.iterations.front().points / 2);

  // Overlap re-computations agreed.
  for (const auto& it : result.iterations) {
    if (it.max_overlap_mismatch > 0.0) {
      EXPECT_LT(it.max_overlap_mismatch, 1e-3);
    }
  }

  // The reference reproduces the simulator's Bode plot (Fig. 2).
  const BodeComparison bode =
      compare_bode(result.reference, ua, circuits::ua741_gain_spec(), 1.0, 100e6, 3);
  EXPECT_LT(bode.max_magnitude_error_db, 1e-3);
  EXPECT_LT(bode.max_phase_error_deg, 1e-2);
}

TEST(Adaptive, Ua741CoefficientSpreadIsPaperLike) {
  // The whole point of the paper: consecutive denominator coefficients are
  // 1e6-1e12 apart and span hundreds of decades in total.
  const netlist::Circuit ua = circuits::ua741();
  const AdaptiveResult result = generate_reference(ua, circuits::ua741_gain_spec());
  ASSERT_TRUE(result.complete);
  const auto& den = result.reference.denominator();
  const int top = den.effective_order();
  ASSERT_GE(top, 30);
  const double total_span =
      den.at(0).value.log10_abs() - den.at(top).value.log10_abs();
  EXPECT_GT(std::fabs(total_span), 200.0);
}

TEST(Adaptive, DeflationOffStillCompletes) {
  const netlist::Circuit ua = circuits::ua741();
  AdaptiveOptions options;
  options.use_deflation = false;
  const AdaptiveResult result =
      generate_reference(ua, circuits::ua741_gain_spec(), options);
  ASSERT_TRUE(result.complete) << result.termination;
  // Without eq. (17) every iteration pays the full point count (modulo the
  // +1..+3 near-pole retries).
  const int base = result.iterations.front().points;
  for (const auto& it : result.iterations) {
    EXPECT_GE(it.points, base - 3);
    EXPECT_LE(it.points, base + 3);
    EXPECT_FALSE(it.deflated);
  }
}

TEST(Adaptive, DeflationOnAndOffAgree) {
  const netlist::Circuit ua = circuits::ua741();
  AdaptiveOptions off;
  off.use_deflation = false;
  const AdaptiveResult with_deflation =
      generate_reference(ua, circuits::ua741_gain_spec());
  const AdaptiveResult without =
      generate_reference(ua, circuits::ua741_gain_spec(), off);
  ASSERT_TRUE(with_deflation.complete);
  ASSERT_TRUE(without.complete);
  const auto& a = with_deflation.reference.denominator();
  const auto& b = without.reference.denominator();
  for (int i = 0; i <= std::min(a.order_bound(), b.order_bound()); ++i) {
    if (a.at(i).status != CoefficientStatus::Interpolated) continue;
    if (b.at(i).status != CoefficientStatus::Interpolated) continue;
    EXPECT_LT(numeric::relative_difference(a.at(i).value, b.at(i).value), 1e-4) << i;
  }
}

TEST(Adaptive, SingleFactorScalingInflatesScaleFactors) {
  // §3.2: without simultaneous f/g scaling the factors blow past ~1e18.
  const netlist::Circuit ua = circuits::ua741();
  AdaptiveOptions single;
  single.simultaneous_scaling = false;
  const AdaptiveResult result =
      generate_reference(ua, circuits::ua741_gain_spec(), single);
  double max_factor = 0.0;
  for (const auto& it : result.iterations) {
    max_factor = std::max({max_factor, it.f_scale, 1.0 / it.g_scale});
  }
  const AdaptiveResult simultaneous = generate_reference(ua, circuits::ua741_gain_spec());
  double max_factor_sim = 0.0;
  for (const auto& it : simultaneous.iterations) {
    max_factor_sim = std::max({max_factor_sim, it.f_scale, 1.0 / it.g_scale});
  }
  EXPECT_GT(max_factor, max_factor_sim);
}

TEST(Adaptive, ZeroTailDetectedOnOverestimatedOrder) {
  // The OTA's capacitor-element estimate (9) far exceeds the true order;
  // the engine must complete by declaring the impossible coefficients zero
  // rather than hunting forever.
  const netlist::Circuit ota = circuits::ota_fig1();
  const AdaptiveResult result =
      generate_reference(ota, circuits::ota_fig1_gain_spec());
  ASSERT_TRUE(result.complete);
  EXPECT_LT(result.reference.denominator().effective_order(),
            circuits::kOtaFig1OrderEstimate);
}

TEST(Adaptive, GmCChainWideSpread) {
  // Element values spread over 6 decades force several regions.
  const netlist::Circuit chain = circuits::gm_c_chain(10, 6.0);
  const auto spec = circuits::gm_c_chain_spec(10);
  const AdaptiveResult result = generate_reference(chain, spec);
  ASSERT_TRUE(result.complete) << result.termination;
  const BodeComparison bode = compare_bode(result.reference, chain, spec, 1e3, 1e9, 3);
  EXPECT_LT(bode.max_magnitude_error_db, 1e-3);
}


TEST(Adaptive, ConjugateSymmetryOffStillCompletes) {
  const netlist::Circuit ua = circuits::ua741();
  AdaptiveOptions options;
  options.conjugate_symmetry = false;
  const AdaptiveResult result =
      generate_reference(ua, circuits::ua741_gain_spec(), options);
  ASSERT_TRUE(result.complete) << result.termination;
  // Without the halving, roughly twice the evaluations per iteration.
  const AdaptiveResult halved = generate_reference(ua, circuits::ua741_gain_spec());
  EXPECT_GT(result.total_evaluations, halved.total_evaluations * 3 / 2);
  // Coefficients agree across the two evaluation schedules.
  const auto& a = result.reference.denominator();
  const auto& b = halved.reference.denominator();
  for (int i = 0; i <= std::min(a.order_bound(), b.order_bound()); ++i) {
    if (a.at(i).status != CoefficientStatus::Interpolated) continue;
    if (b.at(i).status != CoefficientStatus::Interpolated) continue;
    EXPECT_LT(numeric::relative_difference(a.at(i).value, b.at(i).value), 1e-4) << i;
  }
}

TEST(Adaptive, RecordsCarryProvenance) {
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const AdaptiveResult result = generate_reference(ladder, circuits::rc_ladder_spec(4));
  ASSERT_TRUE(result.complete);
  const auto& den = result.reference.denominator();
  for (int i = 0; i <= den.order_bound(); ++i) {
    const auto& c = den.at(i);
    if (c.status != CoefficientStatus::Interpolated) continue;
    ASSERT_GE(c.iteration, 0) << i;
    ASSERT_LT(c.iteration, static_cast<int>(result.iterations.size())) << i;
    // The producing iteration's region must cover this index (in residual
    // space) and the accuracy estimate must be a sane relative error.
    EXPECT_GT(c.relative_accuracy, 0.0) << i;
    EXPECT_LE(c.relative_accuracy, 1.0) << i;
    const auto& record = result.iterations[static_cast<std::size_t>(c.iteration)];
    EXPECT_TRUE(record.den_region.contains(i - record.den_shift)) << i;
  }
  EXPECT_EQ(result.denominator_degree, 5 - 1);  // dim(in,n1..n4) - 1
}

// Tuning factor sweep (eq. (14) r parameter): the engine must complete for
// a band of r values around 0; larger |r| changes the iteration count.
class TuningFactorSweep : public ::testing::TestWithParam<double> {};

TEST_P(TuningFactorSweep, Ua741CompletesForTuningFactor) {
  const netlist::Circuit ua = circuits::ua741();
  AdaptiveOptions options;
  options.tuning_r = GetParam();
  const AdaptiveResult result =
      generate_reference(ua, circuits::ua741_gain_spec(), options);
  EXPECT_TRUE(result.complete) << "r=" << GetParam() << " " << result.termination;
}

INSTANTIATE_TEST_SUITE_P(TuningR, TuningFactorSweep,
                         ::testing::Values(-4.0, -2.0, -1.0, 0.0, 1.0, 2.0));

// Ladder-size sweep: exact completion and correct effective order for
// every n (property-style check of the whole pipeline).
class LadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LadderSweep, CompletesWithExactOrder) {
  const int n = GetParam();
  const netlist::Circuit ladder = circuits::rc_ladder(n);
  const auto spec = circuits::rc_ladder_spec(n);
  const AdaptiveResult result = generate_reference(ladder, spec);
  ASSERT_TRUE(result.complete) << result.termination;
  EXPECT_EQ(result.reference.denominator().effective_order(), n);
  // Validation against the simulator at an arbitrary complex point.
  const double err = relative_transfer_error(result.reference, ladder, spec,
                                             {1e4, 2.0 * M_PI * 3e5});
  EXPECT_LT(err, 1e-6) << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LadderSweep, ::testing::Values(1, 2, 4, 6, 10, 16, 25));

}  // namespace
}  // namespace symref::refgen
