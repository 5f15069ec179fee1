#include "circuits/filters.h"

#include <cmath>

namespace symref::circuits {

netlist::Circuit tow_thomas(double f0_hz, double quality, double gain) {
  const double w0 = 2.0 * M_PI * f0_hz;
  const double c = 10e-9;
  const double r = 1.0 / (w0 * c);     // integrator resistors
  const double rq = quality * r;       // damping
  const double rg = r / gain;          // input gain set
  const double ru = 10e3;              // unity inverter

  netlist::Circuit ckt;
  ckt.title = "tow-thomas biquad";
  // A1: lossy inverting integrator; virtual ground "va", output "bp".
  ckt.add_resistor("rg", "in", "va", rg);
  ckt.add_resistor("rq", "bp", "va", rq);
  ckt.add_resistor("rfb", "inv", "va", r);   // loop feedback from the inverter
  ckt.add_capacitor("c1", "va", "bp", c);
  ckt.add_opamp("a1", "bp", "0", "va");
  // A2: inverting integrator; virtual ground "vb", output "lp".
  ckt.add_resistor("r2", "bp", "vb", r);
  ckt.add_capacitor("c2", "vb", "lp", c);
  ckt.add_opamp("a2", "lp", "0", "vb");
  // A3: unity inverter; virtual ground "vc", output "inv".
  ckt.add_resistor("r3", "lp", "vc", ru);
  ckt.add_resistor("r4", "inv", "vc", ru);
  ckt.add_opamp("a3", "inv", "0", "vc");
  return ckt;
}

mna::TransferSpec tow_thomas_lowpass_spec() {
  return mna::TransferSpec::voltage_gain("in", "lp");
}

netlist::Circuit sallen_key(double r1, double r2, double c1, double c2) {
  netlist::Circuit ckt;
  ckt.title = "sallen-key lowpass";
  ckt.add_resistor("r1", "in", "n1", r1);
  ckt.add_resistor("r2", "n1", "n2", r2);
  ckt.add_capacitor("c1", "n1", "vo", c1);
  ckt.add_capacitor("c2", "n2", "0", c2);
  // Unity-gain buffer: vo follows n2.
  ckt.add_vcvs("e1", "vo", "0", "n2", "0", 1.0);
  return ckt;
}

mna::TransferSpec sallen_key_spec() { return mna::TransferSpec::voltage_gain("in", "vo"); }

netlist::Circuit rlc_bandpass(double f0_hz, double quality, double resistance) {
  const double w0 = 2.0 * M_PI * f0_hz;
  // Parallel-resonant tank driven through R: Q = R * sqrt(C/L),
  // w0 = 1/sqrt(LC)  ->  L = R/(Q w0), C = Q/(R w0).
  const double inductance = resistance / (quality * w0);
  const double capacitance = quality / (resistance * w0);
  netlist::Circuit c;
  c.title = "rlc bandpass";
  c.add_resistor("r1", "in", "out", resistance);
  c.add_inductor("l1", "out", "0", inductance);
  c.add_capacitor("c1", "out", "0", capacitance);
  return c;
}

mna::TransferSpec rlc_bandpass_spec() {
  return mna::TransferSpec::voltage_gain("in", "out");
}

}  // namespace symref::circuits
