// Scalable test circuits: RC ladders, gm-C chains, random RC networks.
//
// The ladders have exactly known polynomial order (n capacitors, order n),
// which makes them the workhorse of property tests and of the scalability
// bench (runtime vs circuit size, ablation A4 in DESIGN.md).
#pragma once

#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "support/random.h"

namespace symref::circuits {

/// Uniform RC lowpass ladder: in -R- n1 -R- n2 ... with C from each stage
/// node to ground. Input node "in", output node "n<stages>".
/// Denominator order is exactly `stages`.
netlist::Circuit rc_ladder(int stages, double resistance = 1e3, double capacitance = 1e-9);

/// Voltage gain across the ladder.
mna::TransferSpec rc_ladder_spec(int stages);

/// Chain of lossy gm-C integrator stages whose element values spread over
/// `decades_of_spread` decades — wide coefficient slopes that force the
/// adaptive engine through many regions.
netlist::Circuit gm_c_chain(int stages, double decades_of_spread = 3.0,
                            double base_gm = 100e-6, double base_c = 1e-12);

mna::TransferSpec gm_c_chain_spec(int stages);

/// rows x cols RC grid: resistors along the mesh edges, a capacitor from
/// every node to ground, and a load resistor grounding the output corner.
/// Unlike the ladder (which factors with zero fill), the 2D mesh produces
/// genuine fill-in — the size axis for the replay kernel benches. Node names
/// "m<row>_<col>", 1-based.
netlist::Circuit grid_mesh(int rows, int cols, double resistance = 1e3,
                           double capacitance = 1e-9);

/// Voltage gain from corner m1_1 to corner m<rows>_<cols>.
mna::TransferSpec grid_mesh_spec(int rows, int cols);

struct RandomRcOptions {
  int nodes = 8;            // non-ground nodes
  int extra_resistors = 6;  // beyond the spanning tree
  int capacitors = 6;
  double r_min = 1e2, r_max = 1e6;
  double c_min = 1e-13, c_max = 1e-9;
};

/// Random connected RC network: a resistor spanning tree (every node has a
/// DC path to ground) plus random extra resistors and capacitors.
/// Node names "n1".."n<nodes>"; use any pair for a transfer spec.
netlist::Circuit random_rc(support::Rng& rng, const RandomRcOptions& options = {});

}  // namespace symref::circuits
