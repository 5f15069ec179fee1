// Newton-Raphson DC operating-point solver: analytic small circuits,
// plan-reuse accounting, homotopy, and linearization.
#include "dc/newton.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dc/linearize.h"
#include "devices/models.h"
#include "mna/errors.h"
#include "netlist/parser.h"

namespace symref::dc {
namespace {

constexpr double kVt = devices::kThermalVoltage;

netlist::DeviceModel diode_model(double is = 1e-14) {
  netlist::DeviceModel m;
  m.is = is;
  return m;
}

// --- Linear circuits -------------------------------------------------------

TEST(Newton, LinearDividerSolvesDirectly) {
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 10.0;
  c.add_resistor("r1", "in", "mid", 1e3);
  c.add_resistor("r2", "mid", "0", 3e3);

  const OpResult op = solve_op(c);
  EXPECT_NEAR(op.voltage_of("in"), 10.0, 1e-9);
  EXPECT_NEAR(op.voltage_of("mid"), 7.5, 1e-9);
  // Branch current of the source: 10 V over 4k, flowing out of `in`.
  ASSERT_EQ(op.branch_names.size(), 1u);
  EXPECT_EQ(op.branch_names[0], "vin");
  EXPECT_NEAR(op.branch_currents[0], -10.0 / 4e3, 1e-12);
  EXPECT_EQ(op.gmin_steps, 0);
  EXPECT_EQ(op.source_steps, 0);
  EXPECT_EQ(op.fresh_factorizations, 1u);
}

TEST(Newton, CapacitorIsOpenInductorIsShort) {
  netlist::Circuit c;
  c.add_vsource("v1", "a", "0", 1.0).dc_value = 5.0;
  c.add_inductor("l1", "a", "b", 1e-3);
  c.add_resistor("r1", "b", "0", 1e3);
  c.add_capacitor("c1", "b", "0", 1e-6);  // open: no effect on the DC point

  const OpResult op = solve_op(c);
  EXPECT_NEAR(op.voltage_of("b"), 5.0, 1e-9);  // inductor shorts a to b
}

TEST(Newton, EmptyCircuitYieldsEmptyResult) {
  netlist::Circuit c;
  const OpResult op = solve_op(c);
  EXPECT_TRUE(op.node_names.empty());
  EXPECT_EQ(op.newton_iterations, 0);
}

TEST(Newton, FloatingNodeIsSingular) {
  netlist::Circuit c;
  c.add_vsource("v1", "a", "0", 1.0).dc_value = 1.0;
  c.add_resistor("r1", "a", "0", 1e3);
  c.add_capacitor("c1", "b", "c", 1e-9);  // b, c have no DC path at all
  EXPECT_THROW(solve_op(c), mna::SingularSystemError);
}

// --- Diode -----------------------------------------------------------------

TEST(Newton, DiodeResistorMatchesAnalyticSolution) {
  // 5 V -> 1 kOhm -> diode -> ground. Newton solution must satisfy
  // (5 - vd)/R = is*(exp(vd/vt) - 1) to the solver tolerance.
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", diode_model());

  const OpResult op = solve_op(c);
  const double vd = op.voltage_of("d");
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
  const double i_r = (5.0 - vd) / 1e3;
  const double i_d = 1e-14 * (std::exp(vd / kVt) - 1.0);
  EXPECT_NEAR(i_r, i_d, 1e-9 * i_r + 1e-12);

  ASSERT_EQ(op.devices.size(), 1u);
  EXPECT_EQ(op.devices[0].name, "d1");
  EXPECT_NEAR(op.devices[0].value("id"), i_r, 1e-9 * i_r + 1e-12);
  EXPECT_NEAR(op.devices[0].value("vd"), vd, 1e-12);
}

TEST(Newton, ReverseBiasedDiodeCarriesOnlyLeakage) {
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = -5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", diode_model());

  const OpResult op = solve_op(c);
  EXPECT_NEAR(op.voltage_of("d"), -5.0, 1e-6);  // leakage drop only
  EXPECT_LT(std::fabs(op.devices[0].value("id")), 1e-10);
}

TEST(Newton, DiodePolarityFlipsTheJunction) {
  // polarity -1 turns the same card into a cathode-up diode: forward
  // conduction now happens with the anode node NEGATIVE.
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = -5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", diode_model(), -1);

  const OpResult op = solve_op(c);
  const double vd = op.voltage_of("d");
  EXPECT_GT(vd, -0.8);
  EXPECT_LT(vd, -0.4);
  // Terminal-frame current is negative (flows cathode -> anode).
  EXPECT_LT(op.devices[0].value("id"), 0.0);
}

TEST(Newton, NewtonReplaysOneSymbolicPlan) {
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", diode_model());

  OpSolver solver;
  const OpResult op = solver.solve(c);
  EXPECT_GE(op.newton_iterations, 3);
  // All iterations replayed the single fresh factorization.
  EXPECT_EQ(solver.fresh_factor_count(), 1u);
  EXPECT_EQ(op.fresh_factorizations, 1u);

  // A second solve on the same solver reuses the plan outright: zero new
  // fresh factorizations even for the first iteration.
  const OpResult again = solver.solve(c);
  EXPECT_EQ(solver.fresh_factor_count(), 1u);
  EXPECT_EQ(again.fresh_factorizations, 0u);

  // A structurally different circuit forces exactly one new factorization.
  netlist::Circuit c2;
  c2.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c2.add_resistor("r1", "in", "d", 1e3);
  c2.add_resistor("r2", "d", "x", 1e3);
  c2.add_diode("d1", "x", "0", diode_model());
  (void)solver.solve(c2);
  EXPECT_EQ(solver.fresh_factor_count(), 2u);
}

// --- BJT -------------------------------------------------------------------

TEST(Newton, NpnCommonEmitterBias) {
  // Ideal-beta current mirror arithmetic: ib = (5 - vbe)/rb, ic = bf*ib.
  netlist::DeviceModel m;
  m.is = 1e-15;
  m.bf = 100.0;
  netlist::Circuit c;
  c.add_vsource("vcc", "vcc", "0", 1.0).dc_value = 5.0;
  c.add_resistor("rb", "vcc", "b", 430e3);
  c.add_resistor("rc", "vcc", "c", 2e3);
  c.add_bjt("q1", "c", "b", "0", m);

  const OpResult op = solve_op(c);
  const double vbe = op.voltage_of("b");
  EXPECT_GT(vbe, 0.5);
  EXPECT_LT(vbe, 0.8);
  const double ib = (5.0 - vbe) / 430e3;
  const double ic = op.devices[0].value("ic");
  // Active region (vbc < 0): ic = bf * ib to high accuracy.
  EXPECT_LT(op.devices[0].value("vbc"), 0.0);
  EXPECT_NEAR(ic, 100.0 * ib, 1e-6 * ic);
  EXPECT_NEAR(op.voltage_of("c"), 5.0 - 2e3 * ic, 1e-6);
  // gm = ic/vt from the op table.
  EXPECT_NEAR(op.devices[0].value("gm"), ic / kVt, 1e-9 * ic / kVt);
}

TEST(Newton, PnpMirrorsTheNpnBias) {
  netlist::DeviceModel m;
  m.is = 1e-15;
  m.bf = 100.0;
  netlist::Circuit c;
  c.add_vsource("vee", "vee", "0", 1.0).dc_value = -5.0;
  c.add_resistor("rb", "vee", "b", 430e3);
  c.add_resistor("rc", "vee", "c", 2e3);
  c.add_bjt("q1", "c", "b", "0", m, -1);

  const OpResult op = solve_op(c);
  // Mirror image of the npn case: all voltages and currents negated.
  EXPECT_GT(op.voltage_of("b"), -0.8);
  EXPECT_LT(op.voltage_of("b"), -0.5);
  const double ic = op.devices[0].value("ic");
  EXPECT_LT(ic, 0.0);  // terminal current flows out of the collector
  const double ib = (-5.0 - op.voltage_of("b")) / 430e3;
  EXPECT_NEAR(ic, 100.0 * ib, 1e-6 * std::fabs(ic));
  EXPECT_GT(op.devices[0].value("gm"), 0.0);  // small-signal magnitudes stay positive
}

TEST(Newton, SaturatedBjtConverges) {
  // Base overdriven, collector starved: the device lands in saturation
  // (both junctions forward) and Newton still converges.
  netlist::DeviceModel m;
  m.is = 1e-15;
  m.bf = 100.0;
  netlist::Circuit c;
  c.add_vsource("vcc", "vcc", "0", 1.0).dc_value = 5.0;
  c.add_resistor("rb", "vcc", "b", 10e3);
  c.add_resistor("rc", "vcc", "c", 100e3);
  c.add_bjt("q1", "c", "b", "0", m);

  const OpResult op = solve_op(c);
  EXPECT_GT(op.devices[0].value("vbc"), 0.0);  // saturation
  EXPECT_GT(op.voltage_of("c"), 0.0);
  EXPECT_LT(op.voltage_of("c"), 0.3);
}

// --- MOS -------------------------------------------------------------------

TEST(Newton, NmosSaturationBias) {
  netlist::DeviceModel m;
  m.kp = 200e-6;
  m.vto = 1.0;
  netlist::Circuit c;
  c.add_vsource("vdd", "vdd", "0", 1.0).dc_value = 5.0;
  c.add_vsource("vg", "g", "0", 1.0).dc_value = 2.0;
  c.add_resistor("rd", "vdd", "d", 10e3);
  c.add_mos("m1", "d", "g", "0", m);

  const OpResult op = solve_op(c);
  // Saturation: id = kp/2 * (vgs-vto)^2 = 100e-6 * 1 = 100 uA.
  const double id = op.devices[0].value("id");
  EXPECT_NEAR(id, 100e-6, 1e-9);
  EXPECT_NEAR(op.voltage_of("d"), 5.0 - 10e3 * id, 1e-6);
  EXPECT_NEAR(op.devices[0].value("gm"), 200e-6, 1e-9);
}

TEST(Newton, NmosTriodeBias) {
  netlist::DeviceModel m;
  m.kp = 1e-3;
  m.vto = 1.0;
  netlist::Circuit c;
  c.add_vsource("vdd", "vdd", "0", 1.0).dc_value = 5.0;
  c.add_vsource("vg", "g", "0", 1.0).dc_value = 5.0;
  c.add_resistor("rd", "vdd", "d", 10e3);
  c.add_mos("m1", "d", "g", "0", m);

  const OpResult op = solve_op(c);
  const double vds = op.voltage_of("d");
  EXPECT_LT(vds, 4.0 - 1e-3);  // triode: vds < vgs - vto
  const double id = op.devices[0].value("id");
  EXPECT_NEAR(id, 1e-3 * ((5.0 - 1.0) * vds - 0.5 * vds * vds), 1e-9);
  EXPECT_NEAR(id, (5.0 - vds) / 10e3, 1e-9);
}

TEST(Newton, PmosSaturationBias) {
  netlist::DeviceModel m;
  m.kp = 200e-6;
  m.vto = 1.0;  // model-frame threshold; terminal-frame vto is -1 V
  netlist::Circuit c;
  c.add_vsource("vss", "vss", "0", 1.0).dc_value = -5.0;
  c.add_vsource("vg", "g", "0", 1.0).dc_value = -2.0;
  c.add_resistor("rd", "vss", "d", 10e3);
  c.add_mos("m1", "d", "g", "0", m, -1);

  const OpResult op = solve_op(c);
  EXPECT_NEAR(op.devices[0].value("id"), -100e-6, 1e-9);
  EXPECT_NEAR(op.voltage_of("d"), -5.0 + 10e3 * 100e-6, 1e-6);
}

// --- Telemetry and options -------------------------------------------------

TEST(Newton, CancellationThrows) {
  support::CancellationSource source;
  source.cancel();

  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c.add_resistor("r1", "in", "0", 1e3);
  EXPECT_THROW(solve_op(c, source.token()), support::CancelledError);
}

TEST(Newton, NoConvergenceIsTyped) {
  // 1 A forced backwards through a diode has no DC solution: the junction
  // can carry at most its saturation current in reverse, so the whole
  // homotopy ladder is exhausted.
  netlist::Circuit c;
  c.add_isource("i1", "0", "n", 1.0).dc_value = 1.0;
  c.add_diode("d1", "0", "n", diode_model());
  try {
    solve_op(c);
    FAIL() << "expected NoConvergenceError";
  } catch (const NoConvergenceError& error) {
    EXPECT_NE(std::string(error.what()).find("no convergence"), std::string::npos);
  }
}

TEST(Newton, ResidualIsTiny) {
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", diode_model());
  const OpResult op = solve_op(c);
  EXPECT_LT(op.max_residual, 1e-9);
}

// --- Parser integration ----------------------------------------------------

TEST(Newton, DeviceDeckParsesAndSolves) {
  const netlist::Circuit c = netlist::parse_netlist(R"(
.model nd d is=1e-14
V1 in 0 dc 5
R1 in d 1k
D1 d 0 nd
)");
  ASSERT_TRUE(c.has_devices());
  EXPECT_EQ(c.find_element("V1")->dc_value, 5.0);
  EXPECT_EQ(c.find_element("V1")->value, 1.0);  // AC magnitude untouched by `dc`
  const OpResult op = solve_op(c);
  EXPECT_GT(op.voltage_of("d"), 0.4);
}

// --- Linearization ---------------------------------------------------------

TEST(Linearize, DiodeBecomesConductanceAndCapacitor) {
  netlist::DeviceModel m = diode_model();
  m.tt = 1e-9;
  m.cj = 1e-12;
  netlist::Circuit c;
  c.add_vsource("vin", "in", "0", 1.0).dc_value = 5.0;
  c.add_resistor("r1", "in", "d", 1e3);
  c.add_diode("d1", "d", "0", m);

  const OpResult op = solve_op(c);
  const netlist::Circuit lin = linearize_at(c, op);
  EXPECT_FALSE(lin.has_devices());
  // The DC source became a short: `in` merged into ground, so the resistor
  // now runs from ground to d.
  const netlist::Element* r1 = lin.find_element("r1");
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(std::min(r1->node_pos, r1->node_neg), 0);
  // Device expansion at the bias point.
  const netlist::Element* gd = lin.find_element("d1.gd");
  ASSERT_NE(gd, nullptr);
  const double id = op.devices[0].value("id");
  EXPECT_NEAR(gd->value, id / kVt, 1e-6 * gd->value);
  const netlist::Element* cd = lin.find_element("d1.cd");
  ASSERT_NE(cd, nullptr);
  EXPECT_NEAR(cd->value, 1e-9 * gd->value + 1e-12, 1e-18);
}

TEST(Linearize, BjtExpandsThroughFromBias) {
  netlist::DeviceModel m;
  m.is = 1e-15;
  m.bf = 120.0;
  m.vaf = 80.0;
  m.tf = 0.4e-9;
  m.cje = 1e-12;
  m.cjc = 0.6e-12;
  netlist::Circuit c;
  c.add_vsource("vcc", "vcc", "0", 1.0).dc_value = 5.0;
  c.add_resistor("rb", "vcc", "b", 430e3);
  c.add_resistor("rc", "vcc", "c", 2e3);
  c.add_bjt("q1", "c", "b", "0", m);

  const OpResult op = solve_op(c);
  const netlist::Circuit lin = linearize_at(c, op);

  // Bit-identical to a hand-built expansion from the same solved current.
  const double ic = op.devices[0].value("ic");
  const netlist::BjtParams p =
      netlist::BjtParams::from_bias(ic, 120.0, 80.0, 0.4e-9, 1e-12, 0.6e-12);
  EXPECT_EQ(lin.find_element("q1.gm")->value, p.gm);
  EXPECT_EQ(lin.find_element("q1.rpi")->value, p.beta / p.gm);
  EXPECT_EQ(lin.find_element("q1.ro")->value, p.ro);
  EXPECT_EQ(lin.find_element("q1.cpi")->value, p.cpi);
  EXPECT_EQ(lin.find_element("q1.cmu")->value, p.cmu);
}

TEST(Linearize, SensedSourceSurvivesAsZeroMagnitudeShort) {
  netlist::Circuit c;
  c.add_vsource("vs", "a", "b", 1.0).dc_value = 0.0;  // current-sense element
  c.add_resistor("r1", "a", "0", 1e3);
  c.add_vsource("vin", "in", "b", 1.0).dc_value = 1.0;
  c.add_resistor("r2", "in", "0", 1e3);
  c.add_cccs("f1", "out", "0", "vs", 2.0);
  c.add_resistor("rl", "out", "0", 1e3);
  c.add_diode("d1", "out", "0", diode_model());

  const netlist::Circuit lin = linearize(c);
  const netlist::Element* vs = lin.find_element("vs");
  ASSERT_NE(vs, nullptr);          // sensed source kept...
  EXPECT_EQ(vs->value, 0.0);       // ...as a pure short
  EXPECT_EQ(lin.find_element("vin"), nullptr);  // unsensed source merged away
}

}  // namespace
}  // namespace symref::dc
