// Active-filter benchmark circuits with analytically known transfer
// functions — they exercise the canonicalization of opamps / VCVS and give
// closed-form oracles for the reference engine.
#pragma once

#include "mna/transfer.h"
#include "netlist/circuit.h"

namespace symref::circuits {

/// Tow-Thomas biquad built from three ideal opamps. Lowpass output at
/// "lp", bandpass at "bp". With equal parts the lowpass transfer is
///   H(s) = -H0 * w0^2 / (s^2 + s*w0/Q + w0^2).
netlist::Circuit tow_thomas(double f0_hz = 10e3, double quality = 2.0, double gain = 1.0);

mna::TransferSpec tow_thomas_lowpass_spec();

/// Unity-gain Sallen-Key lowpass (VCVS buffer):
///   H(s) = 1 / (1 + s*C2*(R1+R2) + s^2*R1*R2*C1*C2).
netlist::Circuit sallen_key(double r1 = 10e3, double r2 = 10e3, double c1 = 10e-9,
                            double c2 = 1e-9);

mna::TransferSpec sallen_key_spec();

/// Series-RLC bandpass: in -R- out with L and C from "out" to ground.
///   H(s) = (s L / R) / (1 + s L / R + s^2 L C)   (voltage across L||C)
/// Exercises the inductor -> gyrator-C canonicalization inside the full
/// reference pipeline. Center frequency f0, quality factor q.
netlist::Circuit rlc_bandpass(double f0_hz = 1e6, double quality = 5.0,
                              double resistance = 1e3);

mna::TransferSpec rlc_bandpass_spec();

}  // namespace symref::circuits
