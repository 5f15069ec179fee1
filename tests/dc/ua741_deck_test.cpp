// Transistor-level µA741 deck (tools/data/ua741_npn.cir): the .op solver
// must converge on the real 24-junction bias problem through ONE shared
// factorization plan, land on the textbook collector currents, and the
// small-signal circuit linearized at that bias must reproduce the hand-built
// circuits::ua741() reference element by element and across the Bode sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/ua741.h"
#include "dc/linearize.h"
#include "dc/newton.h"
#include "mna/ac.h"
#include "netlist/parser.h"

namespace symref::dc {
namespace {

netlist::Circuit load_deck() {
  const std::string path = std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741_npn.cir";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing deck: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return netlist::parse_netlist(text.str());
}

struct BiasTarget {
  const char* device;
  double ic;
};

// The textbook currents circuits::ua741() is built from; the deck's
// bias-trim sources pin the Newton solution onto exactly these.
constexpr BiasTarget kTargets[] = {
    {"q1", 9.5e-6},   {"q2", 9.5e-6},  {"q3", 9.5e-6},   {"q4", 9.5e-6},
    {"q5", 9.5e-6},   {"q6", 9.5e-6},  {"q7", 10e-6},    {"q8", 19e-6},
    {"q9", 19e-6},    {"q10", 19e-6},  {"q11", 730e-6},  {"q12", 730e-6},
    {"q13a", 180e-6}, {"q13b", 550e-6}, {"q14", 180e-6}, {"q16", 16e-6},
    {"q17", 550e-6},  {"q18", 165e-6}, {"q20", 180e-6},
};

TEST(Ua741Deck, OpConvergesOntoTextbookBias) {
  const auto deck = load_deck();
  ASSERT_EQ(deck.devices().size(), std::size(kTargets));

  const OpResult op = solve_op(deck);
  EXPECT_GT(op.newton_iterations, 1);
  EXPECT_LT(op.max_residual, 1e-9);

  // Rails and the diode-connected mirror anchors.
  EXPECT_NEAR(op.voltage_of("vcc"), 15.0, 1e-12);
  EXPECT_NEAR(op.voltage_of("vee"), -15.0, 1e-12);
  EXPECT_NEAR(op.voltage_of("c8"), 14.35, 1e-6);
  EXPECT_NEAR(op.voltage_of("b11"), -14.35, 1e-6);
  EXPECT_NEAR(op.voltage_of("vo"), 0.0, 1e-6);

  for (std::size_t i = 0; i < std::size(kTargets); ++i) {
    const OpDeviceInfo& info = op.devices[i];
    EXPECT_EQ(info.name, kTargets[i].device);
    const double ic = std::abs(info.value("ic"));
    EXPECT_NEAR(ic, kTargets[i].ic, 1e-8 * kTargets[i].ic) << info.name;
  }
}

TEST(Ua741Deck, NewtonReplaysOneSharedPlan) {
  const auto deck = load_deck();
  OpSolver solver;
  const OpResult first = solver.solve(deck);
  // The whole homotopy — every Newton iteration of every stage — replays
  // the single symbolic factorization recorded on iteration one.
  EXPECT_EQ(solver.fresh_factor_count(), 1u);
  EXPECT_EQ(first.fresh_factorizations, 1u);

  // A second solve (a parameter-sweep sample) replays the same plan too.
  const OpResult second = solver.solve(deck);
  EXPECT_EQ(solver.fresh_factor_count(), 1u);
  EXPECT_EQ(second.fresh_factorizations, 0u);
}

TEST(Ua741Deck, LinearizationMatchesHandBuiltElementByElement) {
  const auto deck = load_deck();
  const netlist::Circuit linear = linearize(deck);
  const netlist::Circuit reference = circuits::ua741();

  ASSERT_EQ(linear.elements().size(), reference.elements().size());
  for (const netlist::Element& want : reference.elements()) {
    const netlist::Element* got = linear.find_element(want.name);
    ASSERT_NE(got, nullptr) << want.name;
    EXPECT_EQ(got->kind, want.kind) << want.name;
    EXPECT_EQ(linear.node_name(got->node_pos), reference.node_name(want.node_pos)) << want.name;
    EXPECT_EQ(linear.node_name(got->node_neg), reference.node_name(want.node_neg)) << want.name;
    // Values come through devices::bjt_small_signal -> BjtParams::from_bias
    // at the SOLVED currents, which sit within Newton tolerance of the
    // textbook currents the reference was built from.
    EXPECT_NEAR(got->value, want.value, 1e-8 * std::abs(want.value)) << want.name;
  }
}

TEST(Ua741Deck, AutoLinearizedAcMatchesReferenceAcrossTheSweep) {
  const auto deck = load_deck();
  const netlist::Circuit linear = linearize(deck);
  const netlist::Circuit reference = circuits::ua741();
  const mna::AcSimulator sim(linear);
  const mna::AcSimulator ref(reference);
  const mna::TransferSpec spec = circuits::ua741_gain_spec();

  for (const double f : {1.0, 1e2, 1e4, 1e6, 1e8}) {
    const std::complex<double> h = sim.transfer(spec, f);
    const std::complex<double> r = ref.transfer(spec, f);
    EXPECT_LT(std::abs(h - r), 1e-7 * std::abs(r)) << "f = " << f;
  }
  // And the headline number: >100 dB of open-loop DC gain.
  EXPECT_GT(mna::magnitude_db(sim.transfer(spec, 1.0)), 100.0);
}

TEST(Ua741Deck, LinearizedSweepIsBitIdenticalAcrossThreadCounts) {
  const auto deck = load_deck();
  const netlist::Circuit linear = linearize(deck);
  const mna::AcSimulator sim(linear);
  const mna::TransferSpec spec = circuits::ua741_gain_spec();

  const auto serial = sim.bode(spec, 1.0, 1e8, 3, /*threads=*/1);
  const auto parallel = sim.bode(spec, 1.0, 1e8, 3, /*threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].value.real(), parallel[i].value.real());
    EXPECT_EQ(serial[i].value.imag(), parallel[i].value.imag());
  }
}

}  // namespace
}  // namespace symref::dc
