// Canonicalization to the homogeneous admittance class {G, C, VCCS}.
//
// The strongest check is electrical: the canonical circuit must present the
// same transfer function as the original, exactly up to rounding, verified
// through the full-MNA AC simulator.
#include "netlist/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <utility>
#include <vector>

#include "circuits/filters.h"
#include "circuits/ladder.h"
#include "mna/ac.h"
#include "netlist/circuit.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"

namespace symref::netlist {
namespace {

double transfer_mismatch(const Circuit& a, const Circuit& b, const mna::TransferSpec& spec,
                         double freq) {
  const std::complex<double> ha = mna::AcSimulator(a).transfer(spec, freq);
  const std::complex<double> hb = mna::AcSimulator(b).transfer(spec, freq);
  return std::abs(ha - hb) / std::max(1e-30, std::abs(ha));
}

TEST(Canonical, DetectsCanonicalCircuits) {
  Circuit c;
  c.add_conductance("g1", "a", "0", 1e-3);
  c.add_capacitor("c1", "a", "0", 1e-12);
  c.add_vccs("gm1", "b", "0", "a", "0", 1e-3);
  EXPECT_TRUE(is_canonical(c));
  c.add_resistor("r1", "b", "0", 1e3);
  EXPECT_FALSE(is_canonical(c));
}

TEST(Canonical, ResistorBecomesConductance) {
  Circuit c;
  c.add_resistor("r1", "a", "b", 2e3);
  const Circuit out = canonicalize(c);
  ASSERT_TRUE(is_canonical(out));
  const Element* g = out.find_element("r1");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, ElementKind::Conductance);
  EXPECT_DOUBLE_EQ(g->value, 0.5e-3);
}

TEST(Canonical, NodeNamesPreserved) {
  Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const Circuit out = canonicalize(c);
  EXPECT_EQ(*out.find_node("in"), *c.find_node("in"));
  EXPECT_EQ(*out.find_node("out"), *c.find_node("out"));
}

TEST(Canonical, InductorGyratorMatchesImpedance) {
  // Series RL lowpass: in -R- out -L- 0. |H| = 1/sqrt(1+(wR/L... )
  Circuit rl;
  rl.add_resistor("r1", "in", "out", 100.0);
  rl.add_inductor("l1", "out", "0", 1e-3);
  const Circuit canonical = canonicalize(rl);
  ASSERT_TRUE(is_canonical(canonical));
  EXPECT_NE(canonical.find_element("l1.gy1"), nullptr);
  EXPECT_NE(canonical.find_element("l1.gy2"), nullptr);
  EXPECT_NE(canonical.find_element("l1.cx"), nullptr);

  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  for (const double freq : {1e2, 1e4, 1e5, 1e6}) {
    EXPECT_LT(transfer_mismatch(rl, canonical, spec, freq), 1e-9) << freq;
  }
}

/// Relative error of the reference's H(s) that its coefficients' reported
/// accuracies allow: each coefficient's error bound, summed through |N(s)|
/// and |D(s)|.
double reported_accuracy(const refgen::NumericalReference& reference, std::complex<double> s) {
  const auto bound = [s](const refgen::PolynomialReference& p) {
    std::complex<double> value = 0.0;
    double error = 0.0;
    for (int i = 0; i <= p.order_bound(); ++i) {
      const double coefficient = p.at(i).value.to_double();
      value += coefficient * std::pow(s, i);
      error += p.at(i).relative_accuracy * std::abs(coefficient) * std::pow(std::abs(s), i);
    }
    return error / std::abs(value);
  };
  return bound(reference.numerator()) + bound(reference.denominator());
}

TEST(Canonical, ActiveConstructionsAreExact) {
  // One fixed topology per construction, with seeded random R and C values:
  // E (Sallen-Key), O (inverting amplifier, Tow-Thomas), F and H with the
  // 0 V source they sense.
  symref::support::Rng rng(29);
  const auto r = [&rng] { return rng.log_uniform(1e2, 1e5); };
  const auto c = [&rng] { return rng.log_uniform(1e-10, 1e-7); };
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::pair<std::string, Circuit>> decks;
    Circuit sk;
    sk.add_resistor("r1", "in", "a", r());
    sk.add_resistor("r2", "a", "b", r());
    sk.add_capacitor("c1", "a", "out", c());
    sk.add_capacitor("c2", "b", "0", c());
    sk.add_vcvs("e1", "out", "0", "b", "0", rng.uniform(1.0, 2.5));
    decks.emplace_back("sallen-key", std::move(sk));
    Circuit inv;
    inv.add_resistor("r1", "in", "m", r());
    inv.add_resistor("r2", "m", "out", r());
    inv.add_capacitor("c2", "m", "out", c());
    inv.add_opamp("o1", "out", "0", "m");
    decks.emplace_back("inverting amplifier", std::move(inv));
    for (const bool cccs : {true, false}) {
      Circuit stage;
      stage.add_resistor("r1", "in", "a", r());
      stage.add_vsource("vs", "a", "b", 0.0);
      stage.add_resistor("r2", "b", "0", r());
      stage.add_capacitor("c2", "b", "0", c());
      if (cccs) {
        stage.add_cccs("f1", "0", "out", "vs", rng.uniform(1.0, 20.0));
      } else {
        stage.add_ccvs("h1", "out", "0", "vs", r());
      }
      stage.add_resistor("r3", "out", "0", r());
      stage.add_capacitor("c3", "out", "0", c());
      decks.emplace_back(cccs ? "current amplifier" : "transresistance", std::move(stage));
    }
    Circuit tt;
    tt.add_resistor("rg", "in", "va", r());
    tt.add_resistor("rq", "bp", "va", r());
    tt.add_resistor("rfb", "inv", "va", r());
    tt.add_capacitor("c1", "va", "bp", c());
    tt.add_opamp("a1", "bp", "0", "va");
    tt.add_resistor("r2", "bp", "vb", r());
    tt.add_capacitor("c2", "vb", "out", c());
    tt.add_opamp("a2", "out", "0", "vb");
    tt.add_resistor("r3", "out", "vc", r());
    tt.add_resistor("r4", "inv", "vc", r());
    tt.add_opamp("a3", "inv", "0", "vc");
    decks.emplace_back("tow-thomas", std::move(tt));

    const auto spec = mna::TransferSpec::voltage_gain("in", "out");
    for (const auto& [name, deck] : decks) {
      const Circuit canonical = canonicalize(deck);
      ASSERT_TRUE(is_canonical(canonical)) << name;
      const refgen::AdaptiveResult result = refgen::generate_reference(deck, spec);
      ASSERT_TRUE(result.complete) << name << " " << result.termination;
      double highest_pole_hz = 1.0;
      for (const auto& pole :
           numeric::find_roots(result.reference.denominator().polynomial()).roots) {
        highest_pole_hz = std::max(highest_pole_hz, std::abs(pole) / (2.0 * M_PI));
      }
      for (double f = 1.0; f <= 10.0 * highest_pole_hz; f *= std::sqrt(std::sqrt(10.0))) {
        EXPECT_LT(transfer_mismatch(deck, canonical, spec, f), 1e-12)
            << name << " trial " << trial << " f " << f;
        const std::complex<double> s(0.0, 2.0 * M_PI * f);
        const std::complex<double> h = mna::AcSimulator(deck).transfer(spec, f);
        EXPECT_LE(std::abs(result.reference.transfer(s) - h) / std::abs(h),
                  reported_accuracy(result.reference, s))
            << name << " trial " << trial << " f " << f;
      }
    }
  }
}

TEST(Canonical, IdealOpampFollower) {
  Circuit c;
  c.add_resistor("r1", "in", "inp", 1e3);
  c.add_opamp("a1", "out", "inp", "out");  // unity follower
  c.add_resistor("rl", "out", "0", 1e3);
  const Circuit canonical = canonicalize(c);
  ASSERT_TRUE(is_canonical(canonical));
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  for (const double freq : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    const std::complex<double> h = mna::AcSimulator(canonical).transfer(spec, freq);
    EXPECT_LT(std::abs(h - 1.0), 1e-12) << freq;  // an exact unity follower
  }
}

TEST(Canonical, SallenKeyTransferPreserved) {
  const Circuit sk = circuits::sallen_key();
  const Circuit canonical = canonicalize(sk);
  ASSERT_TRUE(is_canonical(canonical));
  const auto spec = circuits::sallen_key_spec();
  for (const double freq : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    EXPECT_LT(transfer_mismatch(sk, canonical, spec, freq), 1e-12) << freq;
  }
}

TEST(Canonical, CccsThroughZeroVoltSense) {
  // F mirrors the current of sense source V1 (0 V) through R1 into R2.
  Circuit c;
  c.add_vsource("v1", "a", "0", 0.0);
  c.add_resistor("r1", "in", "a", 1e3);
  c.add_cccs("f1", "out", "0", "v1", 2.0);
  c.add_resistor("r2", "out", "0", 1e3);
  const Circuit canonical = canonicalize(c);
  ASSERT_TRUE(is_canonical(canonical));
  // i(r1) = vin/1k; i(f1) = 2 * that; v(out) = -i * 1k = -2 vin (sign per
  // SPICE F convention). Compare original vs canonical, not absolute signs.
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  for (const double freq : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    EXPECT_LT(transfer_mismatch(c, canonical, spec, freq), 1e-12) << freq;
  }
}

TEST(Canonical, CcvsRejectedWithoutVoltageSourceBranch) {
  Circuit c;
  c.add_resistor("r1", "a", "0", 1e3);
  c.add_cccs("f1", "out", "0", "r1", 2.0);  // controlling branch is not a V source
  c.add_resistor("r2", "out", "0", 1e3);
  EXPECT_THROW(canonicalize(c), std::invalid_argument);
}

TEST(Canonical, IndependentSourcesDroppedByDefault) {
  Circuit c;
  c.add_vsource("v1", "in", "0", 1.0);
  c.add_isource("i1", "out", "0", 1e-3);
  c.add_resistor("r1", "in", "out", 1e3);
  const Circuit canonical = canonicalize(c);
  EXPECT_EQ(canonical.find_element("v1"), nullptr);
  EXPECT_EQ(canonical.find_element("i1"), nullptr);
  EXPECT_NE(canonical.find_element("r1"), nullptr);
}

TEST(Canonical, IdempotentOnCanonicalCircuits) {
  Circuit c;
  c.add_conductance("g1", "a", "0", 1e-3);
  c.add_capacitor("c1", "a", "0", 1e-12);
  c.add_vccs("gm1", "b", "0", "a", "0", 2e-3);
  const Circuit once = canonicalize(c);
  const Circuit twice = canonicalize(once);
  EXPECT_EQ(once.element_count(), twice.element_count());
  for (const Element& e : once.elements()) {
    const Element* other = twice.find_element(e.name);
    ASSERT_NE(other, nullptr) << e.name;
    EXPECT_DOUBLE_EQ(other->value, e.value) << e.name;
  }
}

TEST(Canonical, GyratorConductanceIsGeometricMeanG) {
  Circuit rl;
  rl.add_resistor("r1", "in", "out", 100.0);
  rl.add_resistor("r2", "out", "0", 1e4);
  rl.add_inductor("l1", "out", "0", 1e-3);
  const Circuit canonical = canonicalize(rl);
  // gg = sqrt(1e-2 * 1e-4) = 1e-3; C = L * gg^2 = 1e-3 * 1e-6.
  EXPECT_NEAR(canonical.find_element("l1.gy1")->value, 1e-3, 1e-18);
  EXPECT_NEAR(canonical.find_element("l1.cx")->value, 1e-9, 1e-24);
}

TEST(Canonical, RandomRcEquivalenceSweep) {
  // Property: canonicalization never changes the AC behaviour of R/C nets.
  symref::support::Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const Circuit c = circuits::random_rc(rng);
    const Circuit canonical = canonicalize(c);
    ASSERT_TRUE(is_canonical(canonical)) << trial;
    const auto spec = mna::TransferSpec::transimpedance("n1", "n3");
    for (const double f : {1e3, 1e6}) {
      const auto a = mna::AcSimulator(c).transfer(spec, f);
      const auto b = mna::AcSimulator(canonical).transfer(spec, f);
      EXPECT_LT(std::abs(a - b), 1e-9 * std::max(1.0, std::abs(a)))
          << "trial " << trial << " f " << f;
    }
  }
}

}  // namespace
}  // namespace symref::netlist
