// AC simulator: analytic transfer functions, sweeps, phase unwrapping.
#include "mna/ac.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <complex>
#include <limits>

#include "circuits/filters.h"
#include "circuits/ladder.h"
#include "circuits/ua741.h"
#include "mna/errors.h"

namespace symref::mna {
namespace {

TEST(AcSimulator, RcLowpassMatchesAnalytic) {
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const AcSimulator sim(c);
  const auto spec = TransferSpec::voltage_gain("in", "out");
  for (const double freq : {1e3, 1e5, 1.59e5, 1e6, 1e8}) {
    const std::complex<double> s(0.0, 2.0 * M_PI * freq);
    const std::complex<double> expected = 1.0 / (1.0 + s * 1e3 * 1e-9);
    EXPECT_LT(std::abs(sim.transfer(spec, freq) - expected), 1e-12 * std::abs(expected))
        << freq;
  }
}

TEST(AcSimulator, DifferentialDrive) {
  // Symmetric divider driven differentially: out = (v+ - v-)/2 midpoint.
  netlist::Circuit c;
  c.add_resistor("r1", "p", "mid", 1e3);
  c.add_resistor("r2", "mid", "n", 1e3);
  c.add_resistor("r3", "mid", "0", 1e6);
  const AcSimulator sim(c);
  const auto spec = TransferSpec::voltage_gain("p", "mid", "n", "0");
  const std::complex<double> h = sim.transfer(spec, 1e3);
  EXPECT_NEAR(h.real(), 0.0, 1e-3);  // midpoint of +-0.5 V is ~0
}

TEST(AcSimulator, TransimpedanceSpec) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 2e3);
  const AcSimulator sim(c);
  const auto spec = TransferSpec::transimpedance("a", "a");
  EXPECT_NEAR(std::abs(sim.transfer(spec, 1.0)), 2e3, 1e-9);
}

TEST(AcSimulator, SallenKeyAnalytic) {
  const double r1 = 10e3, r2 = 10e3, c1 = 10e-9, c2 = 1e-9;
  const netlist::Circuit sk = circuits::sallen_key(r1, r2, c1, c2);
  const AcSimulator sim(sk);
  const auto spec = circuits::sallen_key_spec();
  for (const double freq : {1e2, 1e3, 5e3, 1e4, 1e5}) {
    const std::complex<double> s(0.0, 2.0 * M_PI * freq);
    const std::complex<double> expected =
        1.0 / (1.0 + s * c2 * (r1 + r2) + s * s * r1 * r2 * c1 * c2);
    EXPECT_LT(std::abs(sim.transfer(spec, freq) - expected), 1e-9 * std::abs(expected))
        << freq;
  }
}

TEST(AcSimulator, TowThomasLowpassPeakNearF0) {
  const netlist::Circuit tt = circuits::tow_thomas(10e3, 5.0, 1.0);
  const AcSimulator sim(tt);
  const auto spec = circuits::tow_thomas_lowpass_spec();
  const double g_dc = std::abs(sim.transfer(spec, 10.0));
  const double g_f0 = std::abs(sim.transfer(spec, 10e3));
  const double g_hi = std::abs(sim.transfer(spec, 1e6));
  EXPECT_NEAR(g_dc, 1.0, 1e-2);        // unity DC gain
  EXPECT_NEAR(g_f0 / g_dc, 5.0, 0.1);  // Q-fold peaking at f0
  EXPECT_LT(g_hi, 1e-2);               // -40 dB/dec rolloff
}

TEST(AcSimulator, LogFrequencyGrid) {
  const auto grid = log_frequency_grid(1.0, 1e6, 2);
  EXPECT_GE(grid.size(), 13u);
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_NEAR(grid.back(), 1e6, 1e-6);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
  EXPECT_THROW(log_frequency_grid(0.0, 1e3, 2), std::invalid_argument);
  EXPECT_THROW(log_frequency_grid(1e3, 1e2, 2), std::invalid_argument);
}

TEST(AcSimulator, FrequencyGridIsBounded) {
  // One decade at N points per decade has N + 1 points.
  EXPECT_EQ(log_frequency_grid(1.0, 10.0, kMaxGridPoints - 1).size(),
            static_cast<std::size_t>(kMaxGridPoints));
  EXPECT_THROW(log_frequency_grid(1.0, 10.0, kMaxGridPoints), std::invalid_argument);
  // Nine decades at INT_MAX points per decade used to overflow the point
  // count and return two points.
  EXPECT_THROW(log_frequency_grid(1.0, 1e9, INT_MAX), std::invalid_argument);
  EXPECT_THROW(log_frequency_grid(1.0, std::numeric_limits<double>::infinity(), 1),
               std::invalid_argument);
}

TEST(AcSimulator, BodePhaseUnwrapped) {
  // 5-stage RC ladder: total phase approaches -450 deg; unwrapping must not
  // fold it back into (-180, 180].
  const netlist::Circuit ladder = circuits::rc_ladder(5, 1e3, 1e-9);
  const AcSimulator sim(ladder);
  const auto bode = sim.bode(circuits::rc_ladder_spec(5), 1e2, 1e9, 5);
  EXPECT_LT(bode.back().phase_deg, -300.0);
  for (std::size_t i = 1; i < bode.size(); ++i) {
    EXPECT_LT(std::fabs(bode[i].phase_deg - bode[i - 1].phase_deg), 180.0) << i;
  }
}

TEST(AcSimulator, BodeSweepBitIdenticalToPerPointFactorization) {
  // The cached sweep replays the first point's factorization plan at every
  // later frequency; the replay executes the same operation sequence as a
  // full factorization, so the sweep must match per-point factorization
  // (a fresh simulator per point, i.e. the uncached path) bit for bit.
  const netlist::Circuit ladder = circuits::rc_ladder(8);
  const auto spec = circuits::rc_ladder_spec(8);
  const AcSimulator sim(ladder);
  const auto sweep = sim.bode(spec, 1e2, 1e8, 5);
  ASSERT_GE(sweep.size(), 2u);
  for (const BodePoint& point : sweep) {
    const AcSimulator fresh(ladder);  // cold cache: full factorization
    const std::complex<double> reference = fresh.transfer(spec, point.frequency_hz);
    EXPECT_EQ(point.value, reference) << point.frequency_hz;
  }
}

TEST(AcSimulator, BodeSweepBitIdenticalAcrossThreadCounts) {
  // Every point is an independent replay of the first point's plan (with a
  // throwaway re-factorization if its pivots degrade), and the dB/phase
  // reduction runs in frequency order on the caller — so the thread count
  // must not change a single bit. The µA741 sweep here is the acceptance
  // workload (161 points across 1 Hz .. 100 MHz at 20 points/decade).
  const netlist::Circuit ua = circuits::ua741();
  const auto spec = circuits::ua741_gain_spec();
  const AcSimulator serial_sim(ua);
  const auto serial = serial_sim.bode(spec, 1.0, 1e8, 20, /*threads=*/1);
  EXPECT_EQ(serial.size(), 161u);
  for (const int threads : {2, 8}) {
    const AcSimulator sim(ua);
    const auto parallel = sim.bode(spec, 1.0, 1e8, 20, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].value, serial[i].value) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(parallel[i].magnitude_db, serial[i].magnitude_db)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(parallel[i].phase_deg, serial[i].phase_deg)
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(AcSimulator, ParallelSweepReusableAndCacheCoherent) {
  // A parallel sweep must leave the per-spec cache in a state where single
  // point queries and further sweeps still work and agree with cold-cache
  // results.
  const netlist::Circuit ladder = circuits::rc_ladder(8);
  const auto spec = circuits::rc_ladder_spec(8);
  const AcSimulator sim(ladder);
  const auto first = sim.bode(spec, 1e2, 1e8, 5, 4);
  const auto h = sim.transfer(spec, 12345.0);
  const AcSimulator fresh(ladder);
  EXPECT_EQ(h, fresh.transfer(spec, 12345.0));
  const auto second = sim.bode(spec, 1e2, 1e8, 5, 2);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].value, second[i].value) << i;
  }
}

TEST(AcSimulator, SpecChangeInvalidatesSweepCache) {
  // Alternating specs on one simulator must match fresh-simulator results.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const AcSimulator sim(ladder);
  const auto gain = circuits::rc_ladder_spec(4);
  const auto trans = TransferSpec::transimpedance("in", "n4");
  for (const double f : {1e3, 1e5, 1e7}) {
    const auto h_gain = sim.transfer(gain, f);
    const auto h_trans = sim.transfer(trans, f);
    const AcSimulator fresh_gain(ladder);
    const AcSimulator fresh_trans(ladder);
    EXPECT_EQ(h_gain, fresh_gain.transfer(gain, f)) << f;
    EXPECT_EQ(h_trans, fresh_trans.transfer(trans, f)) << f;
  }
}

TEST(AcSimulator, MagnitudeDbSaturatesAtZero) {
  EXPECT_DOUBLE_EQ(magnitude_db({0.0, 0.0}), -400.0);
  EXPECT_NEAR(magnitude_db({10.0, 0.0}), 20.0, 1e-12);
  EXPECT_NEAR(phase_deg({0.0, 1.0}), 90.0, 1e-12);
}

TEST(AcSimulator, UnknownNodeThrowsSpecError) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 1.0);
  c.node("floating");  // no element touches it
  const AcSimulator sim(c);
  // The typed exception is what the api boundary maps to kInvalidSpec. The
  // rules are the interpolation engine's: unknown or floating nodes and a
  // degenerate input pair, whichever side names them.
  for (const TransferSpec& spec :
       {TransferSpec::voltage_gain("a", "missing"), TransferSpec::voltage_gain("missing", "a"),
        TransferSpec::voltage_gain("a", "floating"), TransferSpec::voltage_gain("floating", "a"),
        TransferSpec::voltage_gain("a", "a", "a"), TransferSpec::voltage_gain("0", "a"),
        TransferSpec::transimpedance("a", "a", "a")}) {
    EXPECT_THROW((void)sim.transfer(spec, 1.0), SpecError)
        << spec.in_pos << "," << spec.in_neg << " -> " << spec.out_pos;
    EXPECT_THROW((void)sim.bode(spec, 1.0, 1e3, 1), SpecError) << spec.in_pos;
  }
  // A valid spec still works on the same simulator afterwards.
  EXPECT_NEAR(std::abs(sim.transfer(TransferSpec::transimpedance("a", "a"), 1.0)), 1.0, 1e-12);
}

}  // namespace
}  // namespace symref::mna
