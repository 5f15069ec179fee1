// Symbolic determinants vs numeric LU — the library's strongest oracle.
#include "symbolic/det.h"

#include <gtest/gtest.h>

#include <complex>

#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "sparse/dense.h"
#include "support/random.h"
#include "symbolic/errors.h"

namespace symref::symbolic {
namespace {

using Complex = std::complex<double>;

TEST(SymbolicDet, RejectsNonCanonical) {
  netlist::Circuit c;
  c.add_resistor("r1", "a", "0", 1e3);
  EXPECT_THROW(SymbolicNodalMatrix{c}, std::invalid_argument);
}

TEST(SymbolicDet, TwoNodeByHand) {
  // G1 a-0, G2 a-b, C1 b-0: det = (g1+g2)(g2+sc1) - g2^2
  //                             = g1 g2 + s(g1+g2)c1 ... expanded by hand:
  //                             = g1 g2 + g2^2 + s c1 g1 + s c1 g2 - g2^2.
  netlist::Circuit c;
  c.add_conductance("g1", "a", "0", 2.0);
  c.add_conductance("g2", "a", "b", 3.0);
  c.add_capacitor("c1", "b", "0", 5.0);
  const SymbolicNodalMatrix matrix(c);
  ASSERT_EQ(matrix.dim(), 2);
  Expression det = symbolic_determinant(matrix);
  det.canonicalize();
  const auto poly = det.coefficients(matrix.symbols());
  EXPECT_NEAR(poly.coeff(0).to_double(), 2.0 * 3.0, 1e-12);        // g1 g2
  EXPECT_NEAR(poly.coeff(1).to_double(), (2.0 + 3.0) * 5.0, 1e-12); // (g1+g2)c1
}

TEST(SymbolicDet, LadderDeterminantStructure) {
  // RC ladder n=2: the input node has no conductive path to ground (only
  // R1 toward the chain), so det(G) = 0 — the s^0 coefficient vanishes
  // structurally. Higher coefficients are nonzero.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(2));
  const SymbolicNodalMatrix matrix(ladder);
  const Expression det = symbolic_determinant(matrix);
  const auto poly = det.coefficients(matrix.symbols());
  EXPECT_EQ(poly.degree(), 2);
  EXPECT_TRUE(poly.coeff(0).is_zero());
  EXPECT_FALSE(poly.coeff(1).is_zero());
  EXPECT_FALSE(poly.coeff(2).is_zero());
}

TEST(SymbolicDet, MatchesNumericDeterminantAtRandomPoints) {
  support::Rng rng(21);
  for (const int n : {2, 3, 4, 5}) {
    const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(n));
    const SymbolicNodalMatrix matrix(ladder);
    const mna::NodalSystem system(ladder);
    sparse::PatternedMatrix assembly(system.dim(), system.stamps());
    const Expression det = symbolic_determinant(matrix);
    for (int trial = 0; trial < 3; ++trial) {
      const Complex s(rng.uniform(-1e6, 1e6), rng.uniform(1e5, 1e7));
      sparse::DenseLu lu;
      ASSERT_TRUE(lu.factor(assembly.assemble(s)));
      const Complex expected = lu.determinant().to_complex();
      const Complex actual = det.evaluate(matrix.symbols(), s).to_complex();
      EXPECT_LT(std::abs(actual - expected), 1e-9 * std::abs(expected))
          << "n=" << n << " trial " << trial;
    }
  }
}

TEST(SymbolicDet, OtaDeterminantMatchesNumeric) {
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const mna::NodalSystem system(ota);
  const Expression det = symbolic_determinant(matrix);
  const Complex s(1e5, 2e6);
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  sparse::DenseLu lu;
  ASSERT_TRUE(lu.factor(assembly.assemble(s)));
  const Complex expected = lu.determinant().to_complex();
  const Complex actual = det.evaluate(matrix.symbols(), s).to_complex();
  EXPECT_LT(std::abs(actual - expected), 1e-8 * std::abs(expected));
}

TEST(SymbolicDet, CofactorMatchesDeletedMinor) {
  // 3-node ladder: cofactor C_{0,1} against a hand-deleted dense minor.
  const netlist::Circuit ladder = netlist::canonicalize(circuits::rc_ladder(3, 1.0, 1.0));
  const SymbolicNodalMatrix matrix(ladder);
  const mna::NodalSystem system(ladder);
  const Complex s(0.5, 1.5);
  const Expression cof = symbolic_cofactor(matrix, 0, 1);
  // Build the dense matrix, delete row 0 / col 1, factor.
  sparse::PatternedMatrix assembly(system.dim(), system.stamps());
  const sparse::CompressedMatrix& full = assembly.assemble(s);
  const int n = system.dim();
  std::vector<Complex> minor;
  for (int r = 1; r < n; ++r) {
    for (int c2 = 0; c2 < n; ++c2) {
      if (c2 == 1) continue;
      minor.push_back(full.at(r, c2));
    }
  }
  sparse::DenseLu lu;
  ASSERT_TRUE(lu.factor(std::move(minor), n - 1));
  const Complex expected = -lu.determinant().to_complex();  // (-1)^(0+1)
  const Complex actual = cof.evaluate(matrix.symbols(), s).to_complex();
  EXPECT_LT(std::abs(actual - expected), 1e-10 * std::abs(expected));
}

TEST(SymbolicTransfer, MatchesCofactorEvaluatorSamples) {
  // The symbolic N and D must equal the numeric cofactor samples for both
  // spec kinds — this ties the symbolic substrate to the engine's path.
  const netlist::Circuit ota = netlist::canonicalize(circuits::ota_fig1());
  const SymbolicNodalMatrix matrix(ota);
  const mna::NodalSystem system(ota);
  for (const auto kind : {mna::TransferSpec::Kind::VoltageGain,
                          mna::TransferSpec::Kind::Transimpedance}) {
    mna::TransferSpec spec = circuits::ota_fig1_gain_spec();
    spec.kind = kind;
    const SymbolicTransfer transfer = symbolic_transfer(matrix, spec);
    const mna::CofactorEvaluator evaluator(system, spec);
    const Complex s(3e4, 8e5);
    const auto sample = evaluator.evaluate(s, 1.0, 1.0);
    ASSERT_TRUE(sample.ok);
    const Complex n_sym = transfer.numerator.evaluate(matrix.symbols(), s).to_complex();
    const Complex d_sym = transfer.denominator.evaluate(matrix.symbols(), s).to_complex();
    const Complex n_num = sample.numerator.to_complex();
    const Complex d_num = sample.denominator.to_complex();
    EXPECT_LT(std::abs(n_sym - n_num), 1e-8 * std::abs(n_num));
    EXPECT_LT(std::abs(d_sym - d_num), 1e-8 * std::abs(d_num));
  }
}

TEST(SymbolicDet, EntryExpression) {
  netlist::Circuit c;
  c.add_conductance("g1", "a", "0", 2.0);
  c.add_capacitor("c1", "a", "0", 3.0);
  const SymbolicNodalMatrix matrix(c);
  const Expression entry = matrix.entry_expression(0, 0);
  EXPECT_EQ(entry.term_count(), 2u);
  const auto poly = entry.coefficients(matrix.symbols());
  EXPECT_NEAR(poly.coeff(0).to_double(), 2.0, 1e-15);
  EXPECT_NEAR(poly.coeff(1).to_double(), 3.0, 1e-15);
}

TEST(SymbolicDet, TooLargeMatrixRejected) {
  // Construction admits up to the SDG generators' 64-column mask...
  netlist::Circuit big;
  for (int i = 0; i < 70; ++i) {
    big.add_conductance(std::string("g").append(std::to_string(i)),
                        std::string("n").append(std::to_string(i)), "0", 1.0);
  }
  EXPECT_THROW(SymbolicNodalMatrix{big}, NonAdmissibleError);
}

TEST(SymbolicDet, FullExpansionRejectsLargeMatrices) {
  // ...but the exponential full expansion keeps its own ~20-node cap.
  netlist::Circuit mid;
  for (int i = 0; i < 25; ++i) {
    mid.add_conductance(std::string("g").append(std::to_string(i)),
                        std::string("n").append(std::to_string(i)), "0", 1.0);
  }
  const SymbolicNodalMatrix matrix(mid);
  EXPECT_EQ(matrix.dim(), 25);
  EXPECT_THROW(symbolic_determinant(matrix), NonAdmissibleError);
  EXPECT_THROW(symbolic_cofactor(matrix, 0, 0), NonAdmissibleError);
}

}  // namespace
}  // namespace symref::symbolic
