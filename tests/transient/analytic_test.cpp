// Transient integrator vs closed-form circuit theory: first-order RC/RL
// step responses, the three damping regimes of a series RLC, a diode
// rectifier checked against a per-point scalar Newton solution of the diode
// equation, a DC-driven deck that must sit still at its operating point, and
// a node only devices touch. These are the golden references the integrator
// has to hit — any history-coefficient sign error, history-rollover bug or
// step-control defect shows up here as a tolerance violation, not a subtle
// drift.
#include "transient/transient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dc/newton.h"
#include "devices/models.h"
#include "netlist/parser.h"

namespace symref::transient {
namespace {

constexpr double kPi = 3.141592653589793238462643;

TransientOptions fixed_step(double tstop, double tstep, Method m = Method::kTrapezoidal) {
  TransientOptions o;
  o.tstop = tstop;
  o.tstep = tstep;
  o.adaptive = false;
  o.method = m;
  return o;
}

/// Largest |simulated - reference| over the run, skipping the first
/// `skip` points (methods with a startup step settle after a few points).
double max_error(const TransientResult& r, const std::string& node,
                 double (*reference)(double), std::size_t skip = 0) {
  const std::vector<double> wave = r.waveform_of(node);
  double worst = 0.0;
  for (std::size_t k = skip; k < r.times.size(); ++k) {
    worst = std::max(worst, std::fabs(wave[k] - reference(r.times[k])));
  }
  return worst;
}

// --- RC step response ------------------------------------------------------
//
// 10 V source, R = 1k, C = 1u starting from v(0) = 0 via .ic:
// v(t) = 10 * (1 - exp(-t / RC)), tau = 1 ms. The .ic formulation keeps the
// source constant, so there is no t = 0 discontinuity and the trapezoidal
// rule's O(h^2) accuracy applies from the very first step.

constexpr double kRcTau = 1e-3;

double rc_reference(double t) { return 10.0 * (1.0 - std::exp(-t / kRcTau)); }

netlist::Circuit rc_circuit() {
  return netlist::parse_netlist(
      "* rc step\n"
      "vin in 0 dc 10\n"
      "r1 in out 1k\n"
      "c1 out 0 1u\n"
      ".ic v(out)=0\n"
      ".end\n");
}

TEST(TransientAnalytic, RcChargesWithTheExactExponential) {
  const netlist::Circuit c = rc_circuit();
  const TransientResult r = solve_transient(c, fixed_step(5e-3, 5e-6));
  ASSERT_EQ(r.steps, 1000);
  ASSERT_EQ(r.times.size(), 1001u);
  EXPECT_EQ(r.times.front(), 0.0);
  EXPECT_EQ(r.times.back(), 5e-3);
  // .ic pinned the start; the end is 5 tau from it.
  EXPECT_NEAR(r.waveform_of("out").front(), 0.0, 1e-12);
  // Trapezoidal LTE: h/tau = 5e-3 per step -> global error ~ (h/tau)^2 / 12.
  EXPECT_LT(max_error(r, "out", rc_reference), 10.0 * 3e-6);
  EXPECT_EQ(r.lte_rejections, 0);
  EXPECT_EQ(r.newton_iterations, 0) << "linear circuit must not run Newton";
}

TEST(TransientAnalytic, RcBdf1ConvergesAtFirstOrder) {
  const netlist::Circuit c = rc_circuit();
  const TransientResult coarse =
      solve_transient(c, fixed_step(5e-3, 2e-5, Method::kBdf1));
  const TransientResult fine =
      solve_transient(c, fixed_step(5e-3, 1e-5, Method::kBdf1));
  const double e_coarse = max_error(coarse, "out", rc_reference);
  const double e_fine = max_error(fine, "out", rc_reference);
  // First order: halving h should roughly halve the error.
  EXPECT_GT(e_coarse, 1e-4);
  EXPECT_NEAR(e_coarse / e_fine, 2.0, 0.3);
}

TEST(TransientAnalytic, RcBdf2ConvergesAtSecondOrder) {
  const netlist::Circuit c = rc_circuit();
  const TransientResult coarse =
      solve_transient(c, fixed_step(5e-3, 2e-5, Method::kBdf2));
  const TransientResult fine =
      solve_transient(c, fixed_step(5e-3, 1e-5, Method::kBdf2));
  const double e_coarse = max_error(coarse, "out", rc_reference, 4);
  const double e_fine = max_error(fine, "out", rc_reference, 4);
  // Second order: halving h should cut the error by about four.
  EXPECT_NEAR(e_coarse / e_fine, 4.0, 0.8);
}

TEST(TransientAnalytic, RcAdaptiveMatchesTheExponentialAndReportsBuckets) {
  const netlist::Circuit c = rc_circuit();
  TransientOptions o;
  o.tstop = 5e-3;
  o.tstep = 5e-5;  // h_ref; LTE control may subdivide dyadically
  o.adaptive = true;
  const TransientResult r = solve_transient(c, o);
  EXPECT_LT(max_error(r, "out", rc_reference), 10.0 * 2e-3);
  EXPECT_GE(r.step_size_buckets, 1);
  // Every bucket was recorded exactly once, plus the t = 0 bias plan and the
  // consistent-initialization plan.
  EXPECT_EQ(r.fresh_factorizations, static_cast<std::uint64_t>(r.step_size_buckets) + 2u);
}

// --- RL step response ------------------------------------------------------
//
// A 1 V step (PULSE with a fast but finite edge) into R = 100 in series with
// L = 10 mH: i(t) = (1 / R) * (1 - exp(-t R / L)), tau = 0.1 ms. The edge is
// resolved by the steps themselves (rise = one step), so only the first few
// points carry the O(h) edge error; it decays with exp(-t / tau).

TEST(TransientAnalytic, RlCurrentRisesWithTheExactExponential) {
  const netlist::Circuit c = netlist::parse_netlist(
      "* rl step\n"
      "vin in 0 dc 0 pulse(0 1 0 1u 1u 1 2)\n"
      "r1 in mid 100\n"
      "l1 mid 0 10m\n"
      ".end\n");
  const TransientResult r = solve_transient(c, fixed_step(5e-4, 1e-6));
  ASSERT_EQ(r.branch_names.size(), 2u);  // vin and l1 carry branch currents
  // The inductor current is the branch unknown; compare from 10 points in
  // (the PULSE edge finishes at t = 1 us, plus the startup transient of the
  // discrete edge).
  const auto it = std::find(r.branch_names.begin(), r.branch_names.end(), "l1");
  ASSERT_NE(it, r.branch_names.end());
  const std::size_t branch =
      r.node_names.size() + static_cast<std::size_t>(it - r.branch_names.begin());
  double worst = 0.0;
  for (std::size_t k = 10; k < r.times.size(); ++k) {
    const double t = r.times[k];
    // Reference shifted by half the edge time (the ramp's centroid).
    const double ref = (1.0 / 100.0) * (1.0 - std::exp(-(t - 0.5e-6) * 100.0 / 10e-3));
    worst = std::max(worst, std::fabs(r.states[k][branch] - ref));
  }
  EXPECT_LT(worst, 1e-2 * (1.0 / 100.0));
}

// --- Series RLC: the three damping regimes ---------------------------------
//
// A capacitor charged to v(0) = 1 V discharging through a series R-L loop:
//   L C v'' + R C v' + v = 0,  v(0) = 1,  v'(0) = -i_L(0)/C = 0.
// With L = 1 mH and C = 1 uF: omega0 = 1 / sqrt(LC) ~ 31.6 krad/s and the
// critical resistance R = 2 sqrt(L / C) = 63.25 ohms.

constexpr double kRlcL = 1e-3;
constexpr double kRlcC = 1e-6;

netlist::Circuit rlc_circuit(double r_ohms) {
  netlist::Circuit c;
  c.add_capacitor("c1", "top", "0", kRlcC);
  c.add_resistor("r1", "top", "mid", r_ohms);
  c.add_inductor("l1", "mid", "0", kRlcL);
  c.set_initial_condition("top", 1.0);
  return c;
}

double rlc_reference(double r_ohms, double t) {
  const double alpha = r_ohms / (2.0 * kRlcL);
  const double omega0 = 1.0 / std::sqrt(kRlcL * kRlcC);
  const double disc = alpha * alpha - omega0 * omega0;
  if (std::fabs(disc) < 1e-9 * omega0 * omega0) {
    // Critically damped: v = (1 + alpha t) e^{-alpha t}.
    return (1.0 + alpha * t) * std::exp(-alpha * t);
  }
  if (disc < 0.0) {
    // Underdamped: v = e^{-alpha t} (cos wd t + (alpha / wd) sin wd t).
    const double wd = std::sqrt(-disc);
    return std::exp(-alpha * t) * (std::cos(wd * t) + (alpha / wd) * std::sin(wd * t));
  }
  // Overdamped: v = (s2 e^{s1 t} - s1 e^{s2 t}) / (s2 - s1).
  const double root = std::sqrt(disc);
  const double s1 = -alpha + root;
  const double s2 = -alpha - root;
  return (s2 * std::exp(s1 * t) - s1 * std::exp(s2 * t)) / (s2 - s1);
}

void check_rlc(double r_ohms, double tolerance) {
  const netlist::Circuit c = rlc_circuit(r_ohms);
  // ~632 steps per natural period: comfortably inside trap's accuracy range.
  const TransientResult r = solve_transient(c, fixed_step(1e-3, 1e-6));
  const std::vector<double> wave = r.waveform_of("top");
  double worst = 0.0;
  for (std::size_t k = 0; k < r.times.size(); ++k) {
    worst = std::max(worst, std::fabs(wave[k] - rlc_reference(r_ohms, r.times[k])));
  }
  EXPECT_LT(worst, tolerance) << "R = " << r_ohms;
}

TEST(TransientAnalytic, RlcUnderdampedRingsWithTheExactEnvelope) {
  check_rlc(10.0, 2e-3);  // Q ~ 3.2: several visible ring cycles
}

TEST(TransientAnalytic, RlcOverdampedDecaysBiexponentially) {
  check_rlc(400.0, 1e-3);
}

TEST(TransientAnalytic, RlcCriticallyDampedMatchesThePolynomialEnvelope) {
  check_rlc(2.0 * std::sqrt(kRlcL / kRlcC), 1e-3);
}

TEST(TransientAnalytic, RlcEnergyIsDissipatedMonotonically) {
  // Physics sanity independent of the closed form: the total stored energy
  // (C v^2 + L i^2) / 2 must never grow in the source-free circuit.
  const netlist::Circuit c = rlc_circuit(10.0);
  const TransientResult r = solve_transient(c, fixed_step(1e-3, 1e-6));
  const std::vector<double> v = r.waveform_of("top");
  const auto it = std::find(r.branch_names.begin(), r.branch_names.end(), "l1");
  ASSERT_NE(it, r.branch_names.end());
  const std::size_t branch =
      r.node_names.size() + static_cast<std::size_t>(it - r.branch_names.begin());
  double previous = 0.5 * kRlcC * v[0] * v[0];
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    const double i_l = r.states[k][branch];
    const double energy = 0.5 * kRlcC * v[k] * v[k] + 0.5 * kRlcL * i_l * i_l;
    EXPECT_LE(energy, previous * (1.0 + 1e-9)) << "at t = " << r.times[k];
    previous = energy;
  }
}

// --- Diode rectifier -------------------------------------------------------
//
// vin -> R -> diode -> ground driven by a 5 V sine. The circuit is
// memoryless, so the exact output at each time point solves the scalar
// equation (vin - vd) / R = Is (e^{vd / nVt} - 1) + gmin vd — the same model
// the engine stamps, solved here independently per point by bisection.

double rectifier_reference(double vin, double r_ohms, const netlist::DeviceModel& m,
                           double gmin) {
  const double n_vt = m.n * devices::kThermalVoltage;
  auto residual = [&](double vd) {
    return (vin - vd) / r_ohms - m.is * (devices::guarded_exp(vd / n_vt).f - 1.0) - gmin * vd;
  };
  double lo = -10.0;
  double hi = 10.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (residual(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TEST(TransientAnalytic, DiodeRectifierTracksThePerPointNewtonSolution) {
  const netlist::Circuit c = netlist::parse_netlist(
      "* half-wave rectifier\n"
      ".model dfast d is=1e-14 n=1\n"
      "vin in 0 dc 0 sin(0 5 1k)\n"
      "r1 in out 1k\n"
      "d1 out 0 dfast\n"
      ".end\n");
  const TransientResult r = solve_transient(c, fixed_step(2e-3, 2e-6));  // 500 pts/cycle
  ASSERT_FALSE(c.devices().empty());
  const netlist::DeviceModel& model = c.devices()[0].model;
  const std::vector<double> wave = r.waveform_of("out");
  double worst = 0.0;
  for (std::size_t k = 0; k < r.times.size(); ++k) {
    const double vin = 5.0 * std::sin(2.0 * kPi * 1e3 * r.times[k]);
    worst = std::max(worst, std::fabs(wave[k] - rectifier_reference(vin, 1e3, model, kGmin)));
  }
  // Memoryless circuit: the only error is Newton's own tolerance.
  EXPECT_LT(worst, 1e-5);
  EXPECT_GT(r.newton_iterations, 0);
  // Forward peak clamps near a junction drop; reverse peak pulls out to
  // nearly -5 V across the off diode... but through R the node follows vin.
  const double peak = *std::max_element(wave.begin(), wave.end());
  EXPECT_GT(peak, 0.5);
  EXPECT_LT(peak, 0.8);
}

TEST(TransientAnalytic, PeakDetectorHoldsChargeAcrossReverseHalfCycles) {
  // Adding a hold capacitor turns the rectifier into a peak detector: after
  // the first crest, out stays near the peak while vin swings negative (the
  // diode blocks the discharge; only the bleed resistor droops it).
  const netlist::Circuit c = netlist::parse_netlist(
      "* peak detector\n"
      ".model dfast d is=1e-14 n=1\n"
      "vin in 0 dc 0 sin(0 5 1k)\n"
      "rs in a 10\n"
      "d1 a out dfast\n"
      "c1 out 0 1u\n"
      "rbleed out 0 100k\n"
      ".end\n");
  const TransientResult r = solve_transient(c, fixed_step(2.5e-3, 1e-6));
  const std::vector<double> wave = r.waveform_of("out");
  // Sample at t = 0.75 ms (deep in the negative half-cycle): the detector
  // must still hold most of the ~4.4 V crest (tau_bleed = 100 ms >> 1 ms).
  std::size_t k_hold = 0;
  for (std::size_t k = 0; k < r.times.size(); ++k) {
    if (r.times[k] <= 0.75e-3) k_hold = k;
  }
  EXPECT_GT(wave[k_hold], 4.0);
  // And it must never exceed the crest of the drive.
  EXPECT_LT(*std::max_element(wave.begin(), wave.end()), 5.0);
}

// --- The matrix history at a fixed point ------------------------------------
//
// A linear deck driven only by DC sources has x' = 0 at its operating point,
// so every step must reproduce the .op. A step coefficient set that is not
// consistent (a0 != a1 + a2), a wrong sign in the C·x history, or a spurious
// initial y = C·x' (solve round-off amplified by the initialization
// micro-step's 1/h) moves it.

TEST(TransientAnalytic, DcDrivenLinearDeckStaysAtItsOperatingPoint) {
  const netlist::Circuit c = netlist::parse_netlist(
      "* R, C, L, VCVS, CCCS and DC sources\n"
      "vs in 0 dc 5\n"
      "r1 in a 1k\n"
      "l1 a b 2m\n"
      "c1 b 0 100n\n"
      "r2 b 0 2k\n"
      "e1 c 0 b 0 2\n"
      "r3 c d 500\n"
      "c2 d 0 47n\n"
      "f1 0 d vs 0.1\n"
      "is1 0 b dc 1m\n"
      "r4 d 0 3k\n"
      ".end\n");
  const dc::OpResult op = dc::solve_op(c);
  std::vector<double> x_op = op.node_voltages;
  x_op.insert(x_op.end(), op.branch_currents.begin(), op.branch_currents.end());
  for (const double value : x_op) ASSERT_NE(value, 0.0);  // every unknown has a scale

  for (const Method m : {Method::kTrapezoidal, Method::kBdf1, Method::kBdf2}) {
    const TransientResult r = solve_transient(c, fixed_step(200e-6, 1e-6, m));
    ASSERT_EQ(r.steps, 200) << method_name(m);
    for (std::size_t i = 0; i < x_op.size(); ++i) {
      double worst = 0.0;
      for (const std::vector<double>& state : r.states) {
        worst = std::max(worst, std::fabs(state[i] - x_op[i]) / std::fabs(x_op[i]));
      }
      EXPECT_LT(worst, 1e-9) << method_name(m) << ", unknown " << i;
    }
  }
}

// --- A node only devices touch -----------------------------------------------
//
// Node b joins two identical diodes and nothing else, so it gets its row from
// the device terminals alone. Identical diodes in series carry the same
// current and split the drop evenly: v(b) = v(a) / 2 at the operating point
// and at every time point of this memoryless circuit.

TEST(TransientAnalytic, NodeOnlyDevicesTouchSolvesAtOpAndOverTime) {
  const netlist::Circuit c = netlist::parse_netlist(
      "* diode stack\n"
      ".model dm d is=1e-14 n=1\n"
      "vin in 0 dc 3 sin(3 2 1k)\n"
      "r1 in a 1k\n"
      "d1 a b dm\n"
      "d2 b 0 dm\n"
      ".end\n");
  const dc::OpResult op = dc::solve_op(c);
  const double va = op.voltage_of("a");
  const double vb = op.voltage_of("b");
  EXPECT_NEAR(vb, va / 2.0, 1e-6);
  // KCL at a: the resistor feeds the stack's junction current.
  const netlist::DeviceModel& model = c.devices()[0].model;
  const double n_vt = model.n * devices::kThermalVoltage;
  EXPECT_NEAR((3.0 - va) / 1e3, model.is * std::expm1(vb / n_vt), 1e-9);

  const TransientResult r = solve_transient(c, fixed_step(1e-3, 2e-6));
  const std::vector<double> wa = r.waveform_of("a");
  const std::vector<double> wb = r.waveform_of("b");
  EXPECT_NEAR(wb.front(), vb, 1e-9);
  double worst = 0.0;
  for (std::size_t k = 0; k < wb.size(); ++k) {
    worst = std::max(worst, std::fabs(wb[k] - wa[k] / 2.0));
  }
  EXPECT_LT(worst, 1e-5);
  // The drive swings 1..5 V, so the stack's drop must follow it.
  EXPECT_GT(*std::max_element(wb.begin(), wb.end()) - *std::min_element(wb.begin(), wb.end()),
            0.02);
}

}  // namespace
}  // namespace symref::transient
