// End-to-end pipelines across every module boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "circuits/filters.h"
#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "mna/ac.h"
#include "netlist/canonical.h"
#include "netlist/parser.h"
#include "netlist/writer.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"
#include "refgen/io.h"
#include "refgen/validate.h"
#include "symbolic/sdg.h"

namespace symref {
namespace {

TEST(Integration, NetlistTextToReference) {
  // Parse a textual netlist, generate the reference, validate the Bode plot.
  const auto circuit = netlist::parse_netlist(R"(
.title three-pole amplifier model
G1 x 0 in 0 1m
R1 x 0 10k
C1 x 0 10p
G2 y 0 x 0 1m
R2 y 0 10k
C2 y 0 2p
G3 out 0 y 0 1m
R3 out 0 1k
C3 out 0 100p
)");
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult result = refgen::generate_reference(circuit, spec);
  ASSERT_TRUE(result.complete) << result.termination;
  const refgen::BodeComparison bode =
      refgen::compare_bode(result.reference, circuit, spec, 1e2, 1e9, 4);
  EXPECT_LT(bode.max_magnitude_error_db, 1e-6);
  // DC gain: (1m*10k)^2 * 1m*1k = 100. But the spec input node floats
  // without a driver in the cofactor formulation? No: 'in' only controls G1.
  EXPECT_NEAR(std::abs(result.reference.transfer_at_hz(1.0)), 100.0, 1e-3);
}

TEST(Integration, ReferencePolesMatchAcRolloff) {
  // Roots of the interpolated denominator = circuit poles; validate the
  // dominant pole against the -3 dB point seen by the AC simulator.
  netlist::Circuit c;
  c.add_resistor("r1", "in", "out", 1e3);
  c.add_capacitor("c1", "out", "0", 1e-9);
  const auto spec = mna::TransferSpec::voltage_gain("in", "out");
  const refgen::AdaptiveResult result = refgen::generate_reference(c, spec);
  ASSERT_TRUE(result.complete);
  const auto roots =
      numeric::find_roots(result.reference.denominator().polynomial());
  ASSERT_TRUE(roots.converged);
  ASSERT_EQ(roots.roots.size(), 1u);
  EXPECT_NEAR(roots.roots[0].real(), -1.0 / (1e3 * 1e-9), 1e-3 / (1e3 * 1e-9));
}

TEST(Integration, TowThomasPolesFromReference) {
  // The biquad's w0 and Q are readable off the interpolated denominator.
  const double f0 = 10e3, quality = 2.0;
  const netlist::Circuit tt = circuits::tow_thomas(f0, quality, 1.0);
  const auto spec = circuits::tow_thomas_lowpass_spec();
  const refgen::AdaptiveResult result = refgen::generate_reference(tt, spec);
  ASSERT_TRUE(result.complete) << result.termination;

  // Denominator ~ 1 + s/(w0 Q) + s^2/w0^2 (up to scale): recover w0 from
  // the quadratic factor's roots.
  const auto roots = numeric::find_roots(result.reference.denominator().polynomial());
  ASSERT_TRUE(roots.converged);
  double best_w0 = 0.0;
  for (const auto& root : roots.roots) {
    if (std::abs(root.imag()) > 1.0) {  // the resonant pair
      best_w0 = std::abs(root);
      break;
    }
  }
  EXPECT_NEAR(best_w0, 2.0 * M_PI * f0, 2.0 * M_PI * f0 * 0.02);
}

TEST(Integration, WriterRoundTripPreservesReference) {
  // write -> parse -> regenerate: coefficients identical.
  const netlist::Circuit ladder = circuits::rc_ladder(4);
  const auto spec = circuits::rc_ladder_spec(4);
  const auto original = refgen::generate_reference(ladder, spec);
  const netlist::Circuit reparsed = netlist::parse_netlist(netlist::write_netlist(ladder));
  const auto regenerated = refgen::generate_reference(reparsed, spec);
  ASSERT_TRUE(original.complete);
  ASSERT_TRUE(regenerated.complete);
  for (int i = 0; i <= 4; ++i) {
    EXPECT_LT(numeric::relative_difference(original.reference.denominator().at(i).value,
                                           regenerated.reference.denominator().at(i).value),
              1e-9)
        << i;
  }
}

TEST(Integration, Ua741ReferenceKeepsBode) {
  // Full pipeline on the paper's flagship example: the reference evaluates
  // back to the simulator's response in-band.
  const netlist::Circuit ua = circuits::ua741();
  const auto spec = circuits::ua741_gain_spec();
  const refgen::AdaptiveResult reference = refgen::generate_reference(ua, spec);
  ASSERT_TRUE(reference.complete);

  const mna::AcSimulator sim(ua);
  for (const double f : {10.0, 1e3, 1e5}) {
    const auto h_ref = reference.reference.transfer_at_hz(f);
    const auto h_sim = sim.transfer(spec, f);
    EXPECT_LT(std::abs(h_sim - h_ref) / std::abs(h_ref), 1e-6) << f;
  }
}

TEST(Integration, SdgOnLadderWithEngineReference) {
  // SDG consumes the engine's reference for its stop rule, then the emitted
  // expression evaluates back to the reference within epsilon.
  const netlist::Circuit ladder = circuits::rc_ladder(3);
  const netlist::Circuit canonical = netlist::canonicalize(ladder);
  const auto spec = mna::TransferSpec::transimpedance("in", "n3");
  const refgen::AdaptiveResult reference = refgen::generate_reference(ladder, spec);
  ASSERT_TRUE(reference.complete);

  const symbolic::SymbolicNodalMatrix matrix(canonical);
  for (int k = 0; k <= 3; ++k) {
    symbolic::SdgOptions options;
    options.epsilon = 1e-3;
    const auto result = symbolic::generate_determinant_terms(
        matrix, k, reference.reference.denominator().at(k).value, options);
    EXPECT_TRUE(result.met) << "k=" << k << " " << result.termination;
  }
}

TEST(Integration, CanonicalizedFilterReferenceMatchesOriginalSimulation) {
  // Opamps + VCVS go through canonicalization; the reference generated from
  // the canonical twin must reproduce the ORIGINAL circuit's response to
  // rounding, deep into the stopband. relative_transfer_error factors each
  // point afresh; a Bode sweep replays the 1 Hz pivot order, which loses
  // digits where |H| is small.
  const std::pair<netlist::Circuit, mna::TransferSpec> filters[] = {
      {circuits::sallen_key(), circuits::sallen_key_spec()},
      {circuits::tow_thomas(1e3, 5.0, 1.0), circuits::tow_thomas_lowpass_spec()}};
  for (const auto& [filter, spec] : filters) {
    const refgen::AdaptiveResult result = refgen::generate_reference(filter, spec);
    ASSERT_TRUE(result.complete) << filter.title;
    for (int k = 0; k <= 32; ++k) {  // 1 Hz .. 100 MHz, 4 points per decade
      const double f = std::pow(10.0, k / 4.0);
      EXPECT_LT(refgen::relative_transfer_error(result.reference, filter, spec,
                                                {0.0, 2.0 * M_PI * f}),
                1e-12)
          << filter.title << " f " << f;
    }
  }
}

TEST(Integration, RandomRcNetworksSweep) {
  support::Rng rng(2024);
  int completed = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const netlist::Circuit c = circuits::random_rc(rng);
    const auto spec = mna::TransferSpec::transimpedance("n1", "n2");
    const refgen::AdaptiveResult result = refgen::generate_reference(c, spec);
    if (!result.complete) continue;  // some random nets have pathological TFs
    ++completed;
    const double err =
        refgen::relative_transfer_error(result.reference, c, spec, {0.0, 1e5});
    EXPECT_LT(err, 1e-4) << "trial " << trial;
  }
  EXPECT_GE(completed, 6);
}


TEST(Integration, RlcBandpassThroughGyrator) {
  // The inductor path: L -> gyrator-C inside canonicalization, then the full
  // reference pipeline. The interpolated response must match the original
  // RLC circuit (simulated with a true inductor branch in MNA).
  const double f0 = 1e6, q = 5.0;
  const netlist::Circuit rlc = circuits::rlc_bandpass(f0, q);
  const auto spec = circuits::rlc_bandpass_spec();
  const refgen::AdaptiveResult result = refgen::generate_reference(rlc, spec);
  ASSERT_TRUE(result.complete) << result.termination;

  const refgen::BodeComparison bode =
      refgen::compare_bode(result.reference, rlc, spec, f0 / 100, f0 * 100, 6);
  EXPECT_LT(bode.max_magnitude_error_db, 1e-3);

  // Bandpass physics: unity at f0, rolloff on both sides.
  const mna::AcSimulator sim(rlc);
  EXPECT_NEAR(std::abs(sim.transfer(spec, f0)), 1.0, 0.01);
  EXPECT_LT(std::abs(sim.transfer(spec, f0 / 50)), 0.2);
  EXPECT_LT(std::abs(sim.transfer(spec, f0 * 50)), 0.2);

  // The denominator order is 2 (one L through the gyrator + one C).
  EXPECT_EQ(result.reference.denominator().effective_order(), 2);
}

TEST(Integration, MonteCarloElementSpread) {
  // Robustness: random log-uniform element values over wide ranges; the
  // engine must either complete with a validated reference or terminate
  // with an explicit diagnosis — never return complete-but-wrong.
  support::Rng rng(31337);
  int completed = 0;
  for (int trial = 0; trial < 12; ++trial) {
    netlist::Circuit c;
    const int stages = 2 + static_cast<int>(rng.uniform_index(3));
    std::string previous = "in";
    for (int i = 1; i <= stages; ++i) {
      const std::string node = std::string("n").append(std::to_string(i));
      c.add_resistor(std::string("r").append(std::to_string(i)), previous, node,
                     rng.log_uniform(1e1, 1e7));
      c.add_capacitor(std::string("c").append(std::to_string(i)), node, "0",
                      rng.log_uniform(1e-15, 1e-7));
      previous = node;
    }
    const auto spec = mna::TransferSpec::voltage_gain(
        "in", std::string("n").append(std::to_string(stages)));
    const refgen::AdaptiveResult result = refgen::generate_reference(c, spec);
    if (!result.complete) continue;
    ++completed;
    const double err =
        refgen::relative_transfer_error(result.reference, c, spec, {0.0, 1e5});
    EXPECT_LT(err, 1e-4) << "trial " << trial;
  }
  EXPECT_GE(completed, 10);
}

TEST(Integration, FloatingCircuitDiagnosedNotCrashed) {
  // A circuit with no ground connection at all: the nodal system is
  // singular at every point; the engine must terminate with a diagnosis.
  netlist::Circuit c;
  c.add_resistor("r1", "a", "b", 1e3);
  c.add_capacitor("c1", "a", "b", 1e-9);
  const auto spec = mna::TransferSpec::transimpedance("a", "b");
  const refgen::AdaptiveResult result = refgen::generate_reference(c, spec);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.termination, "singular_system");
}

TEST(Integration, MaxIterationsGuardsRunaway) {
  // An absurdly small iteration budget must terminate cleanly.
  const netlist::Circuit ua = circuits::ua741();
  refgen::AdaptiveOptions options;
  options.max_iterations = 2;
  const refgen::AdaptiveResult result =
      refgen::generate_reference(ua, circuits::ua741_gain_spec(), options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.termination, "max_iterations");
  EXPECT_EQ(result.iterations.size(), 2u);
  // Partial results are still delivered: some coefficients known.
  EXPECT_GT(result.reference.denominator().known_count(), 0);
}

TEST(Integration, ReferencesSurviveSerializationInPipeline) {
  // reference -> serialize -> parse: the parsed copy evaluates bit-exactly
  // like the original.
  const netlist::Circuit c = circuits::rc_ladder(3);
  const auto spec = circuits::rc_ladder_spec(3);
  const auto result = refgen::generate_reference(c, spec);
  ASSERT_TRUE(result.complete);
  const auto reparsed =
      refgen::read_reference(refgen::write_reference(result.reference));
  for (const double f : {1e3, 1e4, 1e5, 1e6}) {
    EXPECT_EQ(reparsed.transfer_at_hz(f), result.reference.transfer_at_hz(f)) << f;
  }
}

}  // namespace
}  // namespace symref
