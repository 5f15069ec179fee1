// Canonicalization to the homogeneous admittance class {G, C, VCCS}.
//
// Conductance scaling (paper eq. (11)) requires every determinant term to be
// a product of exactly M admittance factors, which holds only when all
// matrix entries are sums of conductances, capacitances and
// transconductances. This pass rewrites a general circuit into that class:
//
//   R            -> G = 1/R
//   L            -> gyrator (two VCCS of conductance gg) + grounded
//                   capacitor C = L*gg^2
//   VCVS (E)     -> output conductance Gbig + VCCS gm = gain*Gbig
//                   (error O(Gext/Gbig))
//   ideal opamp  -> one grounded VCCS driving the output with a large
//                   transconductance gm_A (virtual-short error O(G/gm_A))
//   CCCS (F)     -> controlling V-source replaced by sense conductance Gs,
//                   plus VCCS gm = gain*Gs across the sense nodes
//   CCVS (H)     -> sense conductance + VCVS-style big-G output
//   V/I sources  -> dropped (transfer-function ports are specified
//                   separately; see mna::TransferSpec)
//
// The introduced conductances follow from the circuit's own conductances G:
//
//   gg    = geometric mean of G (1e-3 S when there is none)
//   Gbig  = Gs = 1e6 * max |G| (1 S when there is none)
//   gm_A  = 1e4 * max |G|      (1 S when there is none)
//
// Each introduced element gets a derived name ("l1.gy1", "e2.go", ...), so
// simplification and symbolic output stay traceable to the original element.
#pragma once

#include "netlist/circuit.h"

namespace symref::netlist {

/// True when the circuit contains only {Conductance, Capacitor, Vccs}.
[[nodiscard]] bool is_canonical(const Circuit& circuit) noexcept;

/// Rewrite into the homogeneous admittance class. Node names and indices of
/// the input are preserved; new internal nodes are appended.
[[nodiscard]] Circuit canonicalize(const Circuit& circuit);

}  // namespace symref::netlist
