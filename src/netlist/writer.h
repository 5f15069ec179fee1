// Netlist serialization.
//
// Emits a circuit in a form the parser (and, for the primitive subset, any
// SPICE) can read back. Round-trip
// caveats: a two-terminal Conductance is written as a resistor card with
// value 1/G, and element names are prefixed with the card letter when their
// first letter does not already match it.
#pragma once

#include <string>

#include "netlist/circuit.h"

namespace symref::netlist {

/// Serialize the circuit as a netlist (".title" first when set, ".end" last).
[[nodiscard]] std::string write_netlist(const Circuit& circuit);

}  // namespace symref::netlist
