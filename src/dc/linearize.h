// Small-signal linearization at a solved DC operating point.
//
// linearize_at() rewrites a device-bearing circuit into the purely linear
// Circuit the rest of the engine (canonicalize, CofactorEvaluator,
// AcSimulator, run_param_sweep, simplify) already understands:
//
//   * each DC voltage source becomes an AC short — its two terminals merge
//     into one node (ground wins), exactly the collapsed-rail form of the
//     hand-built reference circuits; a voltage source whose branch current
//     is sensed by a CCCS/CCVS survives as a 0-magnitude source (it IS the
//     short, and the sensing keeps working);
//   * each DC current source becomes an AC open and is dropped;
//   * every linear element is copied with its terminals remapped;
//   * every device expands into its small-signal equivalent at the bias
//     point through the SAME netlist::expand_bjt / expand_mos helpers (and
//     a gd/cd pair for diodes) used by the hand-built references, so a
//     device-level netlist and a reference built from the same bias
//     currents produce element-by-element identical circuits.
//
// The solver-internal gmin shunts are NOT emitted: they are a convergence
// aid, not part of the model.
#pragma once

#include "dc/newton.h"
#include "netlist/circuit.h"

namespace symref::dc {

/// Linearize `circuit` at the operating point `op` (as returned by
/// OpSolver::solve on the same circuit). Throws std::invalid_argument when
/// `op` does not match the circuit (device table mismatch).
[[nodiscard]] netlist::Circuit linearize_at(const netlist::Circuit& circuit, const OpResult& op);

/// Convenience: solve the operating point, then linearize at it.
[[nodiscard]] netlist::Circuit linearize(const netlist::Circuit& circuit,
                                         support::CancellationToken cancel = {});

}  // namespace symref::dc
