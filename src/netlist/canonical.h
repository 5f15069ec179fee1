// Canonicalization to the homogeneous admittance class {G, C, VCCS}.
//
// Conductance scaling (paper eq. (11)) requires every determinant term to be
// a product of exactly M admittance factors, which holds only when all
// matrix entries are sums of conductances, capacitances and
// transconductances. This pass rewrites a general circuit into that class
// exactly, for any element values:
//
//   R            -> G = 1/R
//   branch node  -> every element that needs a branch current gets an
//                   internal node x: gg * v(x) is the branch current, and
//                   the KCL row of x is the element's constraint scaled by gg
//   L            -> branch node + grounded capacitor C = L*gg^2 on x
//                   (-gg*(v(p)-v(n)) + s*L*gg^2*v(x) = 0)
//   VCVS (E)     -> branch node, row gg*(v(p)-v(n)) - gain*gg*(v(c+)-v(c-))
//   ideal opamp  -> branch node from the output to ground (the norator),
//                   row gg*(v(c+)-v(c-)) (the nullator)
//   sensed V     -> a V source an F or H senses: branch node, row
//                   gg*(v(p)-v(n)), so its sense current is gg*v(x)
//   CCCS (F)     -> VCCS gain*gg controlled by the sense node
//   CCVS (H)     -> VCVS row controlled by the sense node, ohms*gg^2
//   V/I sources  -> other independent sources are dropped (transfer-function
//                   ports are specified separately; see mna::TransferSpec)
//
// The one value derived from the circuit is the branch-node conductance
// gg = geometric mean of the circuit's conductances (1e-3 S when there is
// none); any gg gives the same transfer function.
//
// Each introduced element gets a derived name ("l1.gy1", "l1.gy2", "l1.cx",
// "e2.gc", ...) and each branch node is "<element>.x", so simplification
// and symbolic output stay traceable to the original element.
#pragma once

#include "netlist/circuit.h"

namespace symref::netlist {

/// True when the circuit contains only {Conductance, Capacitor, Vccs}.
[[nodiscard]] bool is_canonical(const Circuit& circuit) noexcept;

/// Rewrite into the homogeneous admittance class. Node names and indices of
/// the input are preserved; new internal nodes are appended.
[[nodiscard]] Circuit canonicalize(const Circuit& circuit);

}  // namespace symref::netlist
