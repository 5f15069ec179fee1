// Homogeneous nodal system and the cofactor evaluator (paper eqs. (7)-(11)).
#include "mna/nodal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "mna/ac.h"
#include "netlist/canonical.h"
#include "sparse/dense.h"
#include "sparse/lu.h"

namespace symref::mna {
namespace {

using Complex = std::complex<double>;

TEST(NodalSystem, RejectsNonCanonical) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 1e3);
  EXPECT_THROW(NodalSystem{c}, std::invalid_argument);
}

TEST(NodalSystem, DimensionAndCapCount) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(4));
  const NodalSystem system(ladder);
  EXPECT_EQ(system.dim(), 5);  // in + 4 stage nodes
  EXPECT_EQ(system.capacitor_count(), 4);
  EXPECT_EQ(system.order_bound(), 4);
}

TEST(NodalSystem, MatrixMatchesManualStamp) {
  netlist::Circuit c;
  c.add_conductance("g1", "a", "b", 1e-3);
  c.add_capacitor("c1", "b", "0", 1e-9);
  c.add_vccs("gm", "b", "0", "a", "0", 2e-3);
  const NodalSystem system(c);
  const Complex s(0.0, 1e6);
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  const sparse::CompressedMatrix& compressed = assembly.assemble(s, 1.0, 1.0);
  const int ra = *system.row_of_node("a");
  const int rb = *system.row_of_node("b");
  EXPECT_EQ(compressed.at(ra, ra), Complex(1e-3, 0.0));
  EXPECT_EQ(compressed.at(ra, rb), Complex(-1e-3, 0.0));
  // (b,b): conductance of g1 + sC; (b,a): -g1 + gm.
  EXPECT_LT(std::abs(compressed.at(rb, rb) - (Complex(1e-3) + s * 1e-9)), 1e-18);
  EXPECT_EQ(compressed.at(rb, ra), Complex(-1e-3 + 2e-3, 0.0));
}

TEST(NodalSystem, ScalingMultipliesElementValues) {
  netlist::Circuit c;
  c.add_conductance("g1", "a", "0", 1e-3);
  c.add_capacitor("c1", "a", "0", 1e-12);
  const NodalSystem system(c);
  const double f = 1e9, g = 1e3;
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  const sparse::CompressedMatrix& scaled = assembly.assemble(Complex(0.0, 1.0), f, g);
  const int ra = *system.row_of_node("a");
  EXPECT_LT(std::abs(scaled.at(ra, ra) - Complex(1e-3 * g, 1e-12 * f)), 1e-15);
}

TEST(CofactorEvaluator, RepeatedEvaluationMatchesFreshEvaluator) {
  // The evaluator reuses its factorization plan across points; every sample
  // must agree with a cold evaluator to working precision.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(5));
  const NodalSystem system(ladder);
  const auto spec = TransferSpec::transimpedance("in", "n5");
  const CofactorEvaluator warm(system, spec);
  for (const Complex s : {Complex(0.31, 0.95), Complex(-0.7, 0.7), Complex(0.99, -0.14)}) {
    const auto cached = warm.evaluate(s, 2e9, 50.0);
    const CofactorEvaluator cold(system, spec);
    const auto fresh = cold.evaluate(s, 2e9, 50.0);
    ASSERT_TRUE(cached.ok);
    ASSERT_TRUE(fresh.ok);
    const auto num_difference = (cached.numerator - fresh.numerator).abs();
    const auto den_difference = (cached.denominator - fresh.denominator).abs();
    EXPECT_LT((num_difference / fresh.numerator.abs()).to_double(), 1e-12);
    EXPECT_LT((den_difference / fresh.denominator.abs()).to_double(), 1e-12);
  }
}

TEST(CofactorEvaluator, TransimpedanceDenominatorIsDeterminant) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const NodalSystem system(ladder);
  const auto spec = TransferSpec::transimpedance("in", "n3");
  const CofactorEvaluator evaluator(system, spec);
  EXPECT_EQ(evaluator.denominator_degree(), system.dim());
  EXPECT_EQ(evaluator.numerator_degree(), system.dim() - 1);

  const Complex s(0.3, 0.7);
  const auto sample = evaluator.evaluate(s, 1.0, 1.0);
  ASSERT_TRUE(sample.ok);
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  sparse::DenseLu dense;
  ASSERT_TRUE(dense.factor(assembly.assemble(s, 1.0, 1.0)));
  const Complex det = dense.determinant().to_complex();
  EXPECT_LT(std::abs(sample.denominator.to_complex() - det), 1e-9 * std::abs(det));
}

TEST(CofactorEvaluator, VoltageGainMatchesAcSimulator) {
  // N/D from the cofactor formulation must equal the full-MNA transfer of
  // the original circuit (with its V-source input) at any s.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const netlist::Circuit canonical = netlist::canonicalize(ladder);
  const NodalSystem system(canonical);
  const auto spec = circuits::rc_ladder_spec(4);
  const CofactorEvaluator evaluator(system, spec);
  const AcSimulator sim(ladder);
  for (const Complex s : {Complex(0.0, 1e5), Complex(1e4, 2e5), Complex(-3e4, 1e6)}) {
    const auto sample = evaluator.evaluate(s, 1.0, 1.0);
    ASSERT_TRUE(sample.ok);
    const Complex h_cof = (sample.numerator / sample.denominator).to_complex();
    const Complex h_sim = sim.transfer_s(spec, s);
    EXPECT_LT(std::abs(h_cof - h_sim), 1e-9 * std::abs(h_sim));
  }
}

TEST(CofactorEvaluator, DifferentialGainOnOta) {
  const netlist::Circuit ota = circuits::ota_fig1();
  const netlist::Circuit canonical = netlist::canonicalize(ota);
  const NodalSystem system(canonical);
  const auto spec = circuits::ota_fig1_gain_spec();
  const CofactorEvaluator evaluator(system, spec);
  const AcSimulator sim(ota);
  const Complex s(0.0, 2.0 * M_PI * 1e5);
  const auto sample = evaluator.evaluate(s, 1.0, 1.0);
  ASSERT_TRUE(sample.ok);
  const Complex h_cof = (sample.numerator / sample.denominator).to_complex();
  const Complex h_sim = sim.transfer_s(spec, s);
  EXPECT_LT(std::abs(h_cof - h_sim), 1e-8 * std::abs(h_sim));
}

TEST(CofactorEvaluator, HomogeneousScalingRelation) {
  // Paper eq. (11): with element scaling c->f*c, g->g*g, the sampled
  // polynomial values obey D'(s) = sum p_i f^i g^(M-i) s^i. Check against
  // the unscaled samples via a third-degree ladder whose coefficients we can
  // recover by interpolation at 4 points... simpler: verify the determinant
  // relation D'(s) = g^M * D(f/g * s) for the pure-nodal matrix.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3));
  const NodalSystem system(ladder);
  const auto spec = TransferSpec::transimpedance("in", "n3");
  const CofactorEvaluator evaluator(system, spec);

  const double f = 1e7, g = 1e2;
  const Complex s(0.4, 0.9);
  const auto scaled = evaluator.evaluate(s, f, g);
  // D'(s) = det(g*G + s f*C) = g^M det(G + (f/g) s C) = g^M D((f/g) s).
  const auto unscaled = evaluator.evaluate(s * (f / g), 1.0, 1.0);
  ASSERT_TRUE(scaled.ok);
  ASSERT_TRUE(unscaled.ok);
  const auto g_power =
      numeric::ScaledDouble::pow(numeric::ScaledDouble(g), system.dim());
  const auto expected = unscaled.denominator * numeric::ScaledComplex(g_power);
  const auto difference = (scaled.denominator - expected).abs();
  EXPECT_LT((difference / expected.abs()).to_double(), 1e-9);
}

TEST(CofactorEvaluator, RejectsDegenerateInputPair) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2));
  const NodalSystem system(ladder);
  EXPECT_THROW(CofactorEvaluator(system, TransferSpec::voltage_gain("in", "n1", "in")),
               std::invalid_argument);
}

TEST(CofactorEvaluator, RejectsUnknownNode) {
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2));
  const NodalSystem system(ladder);
  EXPECT_THROW(CofactorEvaluator(system, TransferSpec::voltage_gain("in", "bogus")),
               std::invalid_argument);
}

}  // namespace
}  // namespace symref::mna
