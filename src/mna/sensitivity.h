// Adjoint (Tellegen) small-signal sensitivity analysis.
//
// The paper's SBG description measures each element's "contribution
// (appropriately measured) to the network function". The brute-force
// measure — re-solve the circuit with the element removed — costs one LU per
// element per frequency. The adjoint method gets the first-order influence
// of EVERY element from just two solves per frequency:
//
//   Y v = b          (direct:  excitation at the input port)
//   Y^T w = -d       (adjoint: selector at the output port)
//
//   dH/dy_e = (w_a - w_b) * (v_c - v_d)
//
// for an element contributing y_e through stamp rows (a, b) and controlling
// voltage (c, d); for two-terminal admittances (c, d) == (a, b). The
// normalized magnitude |y_e * dH/dy_e / H| is the classic sensitivity
// ranking of SBG candidates.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "mna/transfer.h"
#include "netlist/circuit.h"

namespace symref::mna {

struct ElementSensitivity {
  std::string element;
  /// dH/dy * y / H at the analysis frequency: relative change of H per
  /// relative change of the element value (complex; magnitude ranks).
  std::complex<double> normalized;
};

/// First-order sensitivities of a transfer function with respect to every
/// canonical element (conductance, capacitor, VCCS) at one frequency.
/// The circuit must be canonical ({G, C, VCCS}); use netlist::canonicalize
/// first. Throws std::runtime_error on singular systems.
std::vector<ElementSensitivity> ac_sensitivities(const netlist::Circuit& canonical,
                                                 const TransferSpec& spec,
                                                 double frequency_hz);

/// Worst-case |normalized| across a log grid — the band-level influence
/// measure for simplification screening.
std::vector<ElementSensitivity> band_sensitivities(const netlist::Circuit& canonical,
                                                   const TransferSpec& spec,
                                                   double f_start_hz, double f_stop_hz,
                                                   int points_per_decade = 2);

}  // namespace symref::mna
