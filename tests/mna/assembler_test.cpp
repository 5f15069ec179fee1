// MNA stamp table: stamps, auxiliary branches, source rows — each case
// solved through the PatternedMatrix assembly AC, DC and transient use.
#include "mna/assembler.h"

#include <gtest/gtest.h>

#include <complex>
#include <stdexcept>
#include <string_view>

#include "mna/ac.h"
#include "sparse/lu.h"

namespace symref::mna {
namespace {

using Complex = std::complex<double>;

/// A circuit's MNA solution at s, driven by every independent source's AC
/// magnitude.
struct Solution {
  const netlist::Circuit& circuit;
  StampTable table;
  std::vector<Complex> x;

  [[nodiscard]] Complex voltage(std::string_view node) const {
    return x[static_cast<std::size_t>(table.row_of(*circuit.find_node(node)))];
  }
  [[nodiscard]] Complex current(std::string_view element) const {
    return x[static_cast<std::size_t>(table.branch_rows.find(element)->second)];
  }
};

Solution solve(const netlist::Circuit& circuit, Complex s) {
  Solution solution{circuit, build_stamp_table(circuit), {}};
  const StampTable& table = solution.table;
  sparse::PatternedMatrix assembly(table.dim, table.stamps);
  sparse::SparseLu lu;
  EXPECT_TRUE(lu.factor(assembly.assemble(s)));
  solution.x.assign(static_cast<std::size_t>(table.dim), Complex());
  for (const SourceRow& source : table.sources) {
    solution.x[static_cast<std::size_t>(source.row)] +=
        source.sign * circuit.elements()[static_cast<std::size_t>(source.element)].value;
  }
  lu.solve(solution.x);
  return solution;
}

TEST(Assembler, ResistiveDivider) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 10.0);
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_resistor("r2", "out", "0", 1e3);
  const Solution x = solve(c, Complex(0.0, 0.0));
  EXPECT_EQ(x.table.dim, 3);  // two nodes + one branch current
  EXPECT_NEAR(x.voltage("out").real(), 5.0, 1e-12);
  // Branch current: 10V across 2k = 5 mA, flowing out of the source's + node.
  EXPECT_NEAR(x.current("v1").real(), -5e-3, 1e-12);
}

TEST(Assembler, CurrentSourceExcitation) {
  netlist::Circuit c;
  c.add_isource("i1", "0", "a", 1e-3);  // pushes current into node a
  c.add_resistor("r1", "a", "0", 2e3);
  EXPECT_NEAR(solve(c, Complex(0.0, 0.0)).voltage("a").real(), 2.0, 1e-12);
}

TEST(Assembler, RcLowpassAtCornerFrequency) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const double w0 = 1.0 / (1e3 * 1e-9);
  const Complex vout = solve(c, Complex(0.0, w0)).voltage("out");
  EXPECT_NEAR(std::abs(vout), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::arg(vout), -M_PI / 4.0, 1e-12);
}

TEST(Assembler, InductorBranch) {
  // RL divider: v(out)/v(in) = sL/(R+sL); at w = R/L magnitude 1/sqrt(2).
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_resistor("r1", "in", "out", 100.0);
  c.add_inductor("l1", "out", "0", 1e-3);
  const Solution x = solve(c, Complex(0.0, 100.0 / 1e-3));
  EXPECT_TRUE(x.table.branch_rows.contains("l1"));
  EXPECT_NEAR(std::abs(x.voltage("out")), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Assembler, VccsStampSign) {
  // SPICE convention: G out 0 in 0 gm draws gm*v(in) OUT of node `out`.
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_vccs("g1", "out", "0", "in", "0", 1e-3);
  c.add_resistor("rl", "out", "0", 1e3);
  // KCL at out: gm*v(in) + v(out)/RL = 0 -> v(out) = -1.
  EXPECT_NEAR(solve(c, Complex(0.0, 0.0)).voltage("out").real(), -1.0, 1e-12);
}

TEST(Assembler, VcvsGain) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_vcvs("e1", "out", "0", "in", "0", 7.5);
  c.add_resistor("rl", "out", "0", 1e3);
  EXPECT_NEAR(solve(c, Complex(0.0, 0.0)).voltage("out").real(), 7.5, 1e-12);
}

TEST(Assembler, CccsMirrorsBranchCurrent) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_resistor("r1", "in", "0", 1e3);  // i(v1) = -1 mA (out of + terminal)
  c.add_cccs("f1", "out", "0", "v1", 2.0);
  c.add_resistor("rl", "out", "0", 1e3);
  // i(f1) = 2 * i(v1) = -2 mA drawn from out -> v(out) = +2.
  EXPECT_NEAR(solve(c, Complex(0.0, 0.0)).voltage("out").real(), 2.0, 1e-12);
}

TEST(Assembler, CcvsTransresistance) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_resistor("r1", "in", "0", 1e3);
  c.add_ccvs("h1", "out", "0", "v1", 500.0);
  c.add_resistor("rl", "out", "0", 1e3);
  // v(out) = 500 * i(v1) = 500 * (-1 mA) = -0.5 V.
  EXPECT_NEAR(solve(c, Complex(0.0, 0.0)).voltage("out").real(), -0.5, 1e-12);
}

TEST(Assembler, IdealOpampInverter) {
  netlist::Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_resistor("r1", "in", "x", 1e3);
  c.add_resistor("r2", "x", "out", 2e3);
  c.add_opamp("a1", "out", "0", "x");  // + input grounded, - input at x
  const Solution x = solve(c, Complex(0.0, 0.0));
  EXPECT_NEAR(x.voltage("out").real(), -2.0, 1e-12);
  EXPECT_NEAR(x.voltage("x").real(), 0.0, 1e-12);
}

TEST(Assembler, FloatingNodesExcluded) {
  netlist::Circuit c;
  c.node("unused");
  c.add_resistor("r1", "a", "0", 1e3);
  const StampTable table = build_stamp_table(c);
  EXPECT_EQ(table.dim, 1);
  EXPECT_EQ(table.row_of(*c.find_node("unused")), -1);
}

TEST(Assembler, CccsWithoutBranchThrows) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 1e3);
  c.add_cccs("f1", "b", "0", "r1", 2.0);
  c.add_resistor("r2", "b", "0", 1e3);
  // The table is built with a deferred error; its users throw with it.
  EXPECT_NE(build_stamp_table(c).error.find("CCCS 'f1'"), std::string::npos);
  const AcSimulator sim(c);
  EXPECT_THROW((void)sim.transfer(TransferSpec::transimpedance("b", "b"), 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace symref::mna
