// Plan-reusing parameter sweeps (grid + Monte-Carlo) over netlist .params.
#include "mna/param_sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/ua741.h"
#include "mna/ac.h"
#include "netlist/writer.h"
#include "support/cancellation.h"

namespace symref::mna {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- Sample plans -----------------------------------------------------------

TEST(ParamSamplePlan, GridIsACartesianProductFirstAxisSlowest) {
  const ParamSamplePlan plan =
      grid_samples({{"a", 1.0, 3.0, 3, false}, {"b", 10.0, 20.0, 2, false}});
  ASSERT_EQ(plan.sample_count(), 6u);
  ASSERT_EQ(plan.names.size(), 2u);
  const double expected[6][2] = {{1, 10}, {1, 20}, {2, 10}, {2, 20}, {3, 10}, {3, 20}};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(plan.values[i * 2 + 0], expected[i][0]) << "sample " << i;
    EXPECT_DOUBLE_EQ(plan.values[i * 2 + 1], expected[i][1]) << "sample " << i;
  }
}

TEST(ParamSamplePlan, GridLogSpacing) {
  const ParamSamplePlan plan = grid_samples({{"r", 1.0, 100.0, 3, true}});
  ASSERT_EQ(plan.sample_count(), 3u);
  EXPECT_DOUBLE_EQ(plan.values[0], 1.0);
  EXPECT_NEAR(plan.values[1], 10.0, 1e-9);
  EXPECT_NEAR(plan.values[2], 100.0, 1e-9);
}

TEST(ParamSamplePlan, GridSinglePointAxisUsesFrom) {
  const ParamSamplePlan plan = grid_samples({{"r", 5.0, 99.0, 1, false}});
  ASSERT_EQ(plan.sample_count(), 1u);
  EXPECT_DOUBLE_EQ(plan.values[0], 5.0);
}

TEST(ParamSamplePlan, GridValidation) {
  EXPECT_THROW((void)grid_samples({}), std::invalid_argument);
  EXPECT_THROW((void)grid_samples({{"", 1, 2, 2, false}}), std::invalid_argument);
  EXPECT_THROW((void)grid_samples({{"a", 1, 2, 0, false}}), std::invalid_argument);
  EXPECT_THROW((void)grid_samples({{"a", -1, 2, 2, true}}), std::invalid_argument);
  EXPECT_THROW((void)grid_samples({{"a", 1, 2, 2, false}, {"a", 1, 2, 2, false}}),
               std::invalid_argument);
  EXPECT_THROW((void)grid_samples({{"a", 1, 2, 2000, false}, {"b", 1, 2, 2000, false}}),
               std::invalid_argument);  // > 2^20 points
  EXPECT_EQ(grid_samples({{"a", 1, 2, kMaxGridPoints, false}}).sample_count(),
            static_cast<std::size_t>(kMaxGridPoints));
  EXPECT_THROW((void)grid_samples({{"a", 1, 2, kMaxGridPoints + 1, false}}),
               std::invalid_argument);
  EXPECT_THROW((void)monte_carlo_samples({{"g", 1.0, 0.1, ParamDist::Kind::kGaussian}},
                                         kMaxGridPoints + 1, 1),
               std::invalid_argument);
}

TEST(ParamSamplePlan, MonteCarloIsDeterministicInSeedAlone) {
  const std::vector<ParamDist> dists = {{"g", 1e-3, 0.05, ParamDist::Kind::kGaussian},
                                        {"c", 1e-12, 0.1, ParamDist::Kind::kUniform}};
  const ParamSamplePlan a = monte_carlo_samples(dists, 32, 42);
  const ParamSamplePlan b = monte_carlo_samples(dists, 32, 42);
  EXPECT_EQ(a.values, b.values);  // bit-identical
  const ParamSamplePlan c = monte_carlo_samples(dists, 32, 43);
  EXPECT_NE(a.values, c.values);
  // A longer run with the same seed starts with the same draws: samples are
  // counter-indexed, not stream-dependent.
  const ParamSamplePlan d = monte_carlo_samples(dists, 64, 42);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], d.values[i]);
  }
}

TEST(ParamSamplePlan, MonteCarloDrawsSpreadAroundTheNominal) {
  const ParamSamplePlan plan =
      monte_carlo_samples({{"r", 1e3, 0.05, ParamDist::Kind::kGaussian}}, 512, 7);
  double sum = 0.0;
  double lo = 1e308;
  double hi = -1e308;
  for (const double v : plan.values) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(sum / 512.0, 1e3, 1e3 * 0.05 * 0.2);  // mean within sigma/5
  EXPECT_LT(lo, 1e3 * 0.97);
  EXPECT_GT(hi, 1e3 * 1.03);
}

TEST(ParamSamplePlan, MonteCarloUniformStaysInRange) {
  const ParamSamplePlan plan =
      monte_carlo_samples({{"r", 100.0, 0.1, ParamDist::Kind::kUniform}}, 256, 3);
  for (const double v : plan.values) {
    EXPECT_GE(v, 90.0 - 1e-9);
    EXPECT_LE(v, 110.0 + 1e-9);
  }
}

TEST(ParamSamplePlan, MonteCarloValidation) {
  EXPECT_THROW((void)monte_carlo_samples({}, 4, 0), std::invalid_argument);
  EXPECT_THROW((void)monte_carlo_samples({{"r", 1.0, 0.1}}, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)monte_carlo_samples({{"r", 1.0, -0.1}}, 4, 0), std::invalid_argument);
}

// --- The sweep engine -------------------------------------------------------

constexpr const char* kRcNetlist = R"(
.param r=1k c=1n
R1 in out {r}
C1 out 0 {c}
.end
)";

TransferSpec rc_spec() {
  TransferSpec spec;
  spec.in_pos = "in";
  spec.out_pos = "out";
  return spec;
}

TEST(ParamSweep, RcLowpassMatchesTheAnalyticTransfer) {
  const netlist::NetlistTemplate tpl = netlist::parse_netlist_template(kRcNetlist);
  ParamSweepOptions options;
  options.spec = rc_spec();
  options.f_start_hz = 1e3;
  options.f_stop_hz = 1e6;
  options.points_per_decade = 3;
  const ParamSamplePlan plan = grid_samples({{"r", 500.0, 2000.0, 4, false}});

  const ParamSweepResult result = run_param_sweep(tpl, plan, options);
  ASSERT_EQ(result.names.size(), 1u);
  ASSERT_EQ(result.ok.size(), 4u);
  const std::size_t points = result.frequencies_hz.size();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(result.ok[i]);
    const double r = result.values[i];
    for (std::size_t k = 0; k < points; ++k) {
      const std::complex<double> s(0.0, 2.0 * kPi * result.frequencies_hz[k]);
      const std::complex<double> expected = 1.0 / (1.0 + s * r * 1e-9);
      const std::complex<double> got = result.response[i * points + k];
      EXPECT_NEAR(std::abs(got - expected), 0.0, 1e-9 * std::abs(expected))
          << "sample " << i << " point " << k;
    }
  }
  // Same structure at every sample: the baseline plan serves all of them.
  EXPECT_EQ(result.fresh_factorizations, 1u);
}

TEST(ParamSweep, UnknownParameterRejected) {
  const netlist::NetlistTemplate tpl = netlist::parse_netlist_template(kRcNetlist);
  ParamSweepOptions options;
  options.spec = rc_spec();
  EXPECT_THROW(
      (void)run_param_sweep(tpl, grid_samples({{"nope", 1, 2, 2, false}}), options),
      std::invalid_argument);
}

TEST(ParamSweep, ResponseOverTheGridBoundRejected) {
  // 2^11 samples and 2^10 frequencies are each in bound; their 2^21
  // response values are not, and fail before the response is allocated.
  const netlist::NetlistTemplate tpl = netlist::parse_netlist_template(kRcNetlist);
  ParamSweepOptions options;
  options.spec = rc_spec();
  options.f_start_hz = 1.0;
  options.f_stop_hz = 10.0;
  options.points_per_decade = 1023;
  ASSERT_EQ(log_frequency_grid(1.0, 10.0, 1023).size(), 1024u);
  const ParamSamplePlan plan = grid_samples({{"r", 1e3, 2e3, 1 << 11, false}});
  EXPECT_THROW((void)run_param_sweep(tpl, plan, options), std::invalid_argument);
}

TEST(ParamSweep, SampleElaborationFailuresSurfaceAsParseErrors) {
  // r reaches 0 -> the {1/r}-style expression in the netlist divides by zero.
  const netlist::NetlistTemplate tpl = netlist::parse_netlist_template(
      ".param r=1k\nR1 in out {r}\nRd out 0 {1/(r/1k - 2)}\nC1 out 0 1n\n");
  ParamSweepOptions options;
  options.spec = rc_spec();
  const ParamSamplePlan plan = grid_samples({{"r", 2000.0, 2000.0, 1, false}});
  EXPECT_THROW((void)run_param_sweep(tpl, plan, options), netlist::ParseError);
}

TEST(ParamSweep, CancellationStopsTheSweep) {
  const netlist::NetlistTemplate tpl = netlist::parse_netlist_template(kRcNetlist);
  support::CancellationSource source;
  source.cancel();
  ParamSweepOptions options;
  options.spec = rc_spec();
  options.cancel = source.token();
  EXPECT_THROW((void)run_param_sweep(tpl, grid_samples({{"r", 1, 2, 4, false}}), options),
               support::CancelledError);
}

// --- µA741 Monte-Carlo: one symbolic plan, bit-identical at any thread count

/// The bundled µA741 with its compensation capacitor lifted to a .param
/// (the circuits::ua741() values are the nominals).
std::string parameterized_ua741() {
  const std::string flat = netlist::write_netlist(circuits::ua741());
  std::istringstream in(flat);
  std::ostringstream out;
  out << ".param ccomp=30p rload=2k\n";
  std::string line;
  bool replaced_cc = false;
  bool replaced_rl = false;
  while (std::getline(in, line)) {
    if (line.rfind("cc ", 0) == 0) {
      out << line.substr(0, line.rfind(' ')) << " {ccomp}\n";
      replaced_cc = true;
    } else if (line.rfind("rl ", 0) == 0) {
      out << line.substr(0, line.rfind(' ')) << " {rload}\n";
      replaced_rl = true;
    } else {
      out << line << '\n';
    }
  }
  EXPECT_TRUE(replaced_cc && replaced_rl) << "writer format changed?";
  return out.str();
}

TEST(ParamSweep, Ua741MonteCarloReusesOneSymbolicPlan) {
  const netlist::NetlistTemplate tpl =
      netlist::parse_netlist_template(parameterized_ua741());
  ParamSweepOptions options;
  options.spec = circuits::ua741_gain_spec();
  options.f_start_hz = 1.0;
  options.f_stop_hz = 1e6;
  options.points_per_decade = 1;
  const ParamSamplePlan plan = monte_carlo_samples(
      {{"ccomp", 30e-12, 0.1, ParamDist::Kind::kGaussian},
       {"rload", 2e3, 0.05, ParamDist::Kind::kGaussian}},
      256, 20260727);

  const ParamSweepResult result = run_param_sweep(tpl, plan, options);
  ASSERT_EQ(result.ok.size(), 256u);
  for (std::size_t i = 0; i < result.ok.size(); ++i) {
    EXPECT_TRUE(result.ok[i]) << "sample " << i;
  }
  // THE acceptance probe: 256 samples x 7 probe points ran on exactly one
  // Markowitz factorization — everything else was a plan replay.
  EXPECT_EQ(result.fresh_factorizations, 1u);
}

TEST(ParamSweep, Ua741MonteCarloBitIdenticalAcrossThreadCounts) {
  const netlist::NetlistTemplate tpl =
      netlist::parse_netlist_template(parameterized_ua741());
  ParamSweepOptions options;
  options.spec = circuits::ua741_gain_spec();
  options.f_start_hz = 1.0;
  options.f_stop_hz = 1e5;
  options.points_per_decade = 1;
  const ParamSamplePlan plan = monte_carlo_samples(
      {{"ccomp", 30e-12, 0.1, ParamDist::Kind::kGaussian}}, 64, 7);

  options.threads = 1;
  const ParamSweepResult serial = run_param_sweep(tpl, plan, options);
  for (const int threads : {2, 8}) {
    options.threads = threads;
    const ParamSweepResult parallel = run_param_sweep(tpl, plan, options);
    ASSERT_EQ(parallel.response.size(), serial.response.size());
    for (std::size_t i = 0; i < serial.response.size(); ++i) {
      // Bit-equality, not tolerance: identical plan, identical replays.
      EXPECT_EQ(serial.response[i].real(), parallel.response[i].real())
          << "threads=" << threads << " index " << i;
      EXPECT_EQ(serial.response[i].imag(), parallel.response[i].imag())
          << "threads=" << threads << " index " << i;
    }
    EXPECT_EQ(serial.values, parallel.values);
    EXPECT_EQ(serial.fresh_factorizations, parallel.fresh_factorizations);
  }
}

// --- Device deck: per-sample Newton re-bias, bit-identical at any thread count

/// The transistor-level µA741 with its bias-chain resistor r5 lifted to a
/// .param: every Monte-Carlo sample moves the operating point, so each
/// sample runs its own Newton bias solve before linearization.
std::string parameterized_ua741_npn() {
  std::ifstream in(std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741_npn.cir");
  std::ostringstream text;
  text << in.rdbuf();
  std::string deck = text.str();
  const std::string card = "r5 b11 bias 39000";
  const std::size_t at = deck.find(card);
  EXPECT_NE(at, std::string::npos) << "ua741_npn.cir no longer has the r5 card";
  if (at == std::string::npos) return deck;
  deck.replace(at, card.size(), "r5 b11 bias {r5v}");
  return ".param r5v=39000\n" + deck;
}

TEST(ParamSweep, DeviceDeckMonteCarloBitIdenticalAcrossThreadCounts) {
  const netlist::NetlistTemplate tpl =
      netlist::parse_netlist_template(parameterized_ua741_npn());
  ParamSweepOptions options;
  options.spec = circuits::ua741_gain_spec();
  options.f_start_hz = 1.0;
  options.f_stop_hz = 1e8;
  options.points_per_decade = 2;
  const ParamSamplePlan plan = monte_carlo_samples(
      {{"r5v", 39000.0, 0.05, ParamDist::Kind::kGaussian}}, 64, 3);

  options.threads = 1;
  const ParamSweepResult serial = run_param_sweep(tpl, plan, options);
  EXPECT_EQ(serial.op_solves, 65u);  // nominal baseline + one re-bias per sample
  for (const int threads : {3, 8}) {
    options.threads = threads;
    const ParamSweepResult parallel = run_param_sweep(tpl, plan, options);
    ASSERT_EQ(parallel.response.size(), serial.response.size());
    for (std::size_t i = 0; i < serial.response.size(); ++i) {
      // Bit-equality: a sample's bias solve must not depend on which lane
      // ran it or which samples that lane solved before.
      EXPECT_EQ(serial.response[i].real(), parallel.response[i].real())
          << "threads=" << threads << " index " << i;
      EXPECT_EQ(serial.response[i].imag(), parallel.response[i].imag())
          << "threads=" << threads << " index " << i;
    }
    EXPECT_EQ(serial.ok, parallel.ok);
    EXPECT_EQ(serial.fresh_factorizations, parallel.fresh_factorizations);
    EXPECT_EQ(serial.op_solves, parallel.op_solves);
    EXPECT_EQ(serial.newton_iterations, parallel.newton_iterations);
  }
}

}  // namespace
}  // namespace symref::mna
