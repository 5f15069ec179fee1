// Circuit element model.
//
// Terminal conventions follow SPICE: two-terminal elements connect
// (node_pos, node_neg); controlled sources add a controlling node pair or a
// controlling branch (the name of a source element whose current is sensed).
#pragma once

#include <string>

namespace symref::netlist {

enum class ElementKind {
  Resistor,       // R: value = ohms
  Conductance,    // G prefix "G" used for VCCS in SPICE; this is our internal kind
  Capacitor,      // C: value = farads
  Inductor,       // L: value = henries
  Vccs,           // G: i(pos->neg) = value * v(ctrl_pos, ctrl_neg)   [gm, siemens]
  Vcvs,           // E: v(pos,neg) = value * v(ctrl_pos, ctrl_neg)    [gain]
  Cccs,           // F: i(pos->neg) = value * i(ctrl_branch)          [gain]
  Ccvs,           // H: v(pos,neg) = value * i(ctrl_branch)           [ohms]
  VoltageSource,  // V: value = AC magnitude, dc_value = DC bias level
  CurrentSource,  // I: value = AC magnitude, dc_value = DC bias level
  IdealOpAmp,     // O: v(pos) driven so that v(ctrl_pos) == v(ctrl_neg)
};

/// Human-readable kind name ("resistor", "vccs", ...).
const char* kind_name(ElementKind kind) noexcept;

/// Time-domain shape of an independent source (transient analysis). A source
/// without an explicit waveform holds its DC level for all t; PULSE and SIN
/// follow the SPICE card semantics.
enum class WaveformKind {
  kDc,     // constant at Element::dc_value
  kPulse,  // PULSE(v1 v2 td tr tf pw per)
  kSin,    // SIN(vo va freq td theta)
};

struct Waveform {
  WaveformKind kind = WaveformKind::kDc;

  // PULSE: v1 = initial level, v2 = pulsed level. SIN: v1 = offset vo,
  // v2 = amplitude va.
  double v1 = 0.0;
  double v2 = 0.0;
  /// Both: delay td before the waveform starts (holds v1 / vo until then).
  double delay = 0.0;

  // PULSE only.
  double rise = 0.0;    // tr: 0 = instantaneous edge
  double fall = 0.0;    // tf
  double width = 0.0;   // pw: 0 = holds v2 until fall of the period
  double period = 0.0;  // per: 0 = single pulse

  // SIN only.
  double frequency = 0.0;  // hertz
  double damping = 0.0;    // theta: exp(-(t - td) * theta) envelope

  /// Source level at time t (seconds). kDc returns `dc`, the element's bias
  /// level — callers pass Element::dc_value.
  [[nodiscard]] double value_at(double t, double dc) const noexcept;
};

struct Element {
  ElementKind kind = ElementKind::Resistor;
  std::string name;

  // Node indices into the owning Circuit (0 = ground).
  int node_pos = 0;
  int node_neg = 0;
  int ctrl_pos = -1;  // controlled sources only
  int ctrl_neg = -1;

  /// CCCS/CCVS: name of the element whose branch current controls this one.
  std::string ctrl_branch;

  double value = 0.0;

  /// Independent sources only: the DC operating-point level (volts/amps).
  /// The AC engines ignore it; the dc:: Newton solver drives the bias with
  /// it. `value` stays the AC magnitude, so pre-existing linear netlists
  /// keep their meaning unchanged.
  double dc_value = 0.0;

  /// Independent sources only: time-domain shape for transient analysis
  /// (kDc = hold dc_value). Ignored by the DC and AC engines.
  Waveform waveform;

  /// Source level at time t: the waveform when one was given, dc_value
  /// otherwise.
  [[nodiscard]] double transient_value(double t) const noexcept {
    return waveform.value_at(t, dc_value);
  }

  [[nodiscard]] bool is_source() const noexcept {
    return kind == ElementKind::VoltageSource || kind == ElementKind::CurrentSource;
  }
  /// True for elements whose MNA stamp needs an auxiliary branch current.
  [[nodiscard]] bool needs_branch_current() const noexcept {
    return kind == ElementKind::VoltageSource || kind == ElementKind::Vcvs ||
           kind == ElementKind::Ccvs || kind == ElementKind::Inductor ||
           kind == ElementKind::IdealOpAmp;
  }
};

}  // namespace symref::netlist
