#include "netlist/canonical.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "numeric/stats.h"
#include "support/log.h"

namespace symref::netlist {

bool is_canonical(const Circuit& circuit) noexcept {
  if (circuit.has_devices()) return false;  // nonlinear: needs dc::linearize_at first
  for (const Element& e : circuit.elements()) {
    switch (e.kind) {
      case ElementKind::Conductance:
      case ElementKind::Capacitor:
      case ElementKind::Vccs:
        continue;
      default:
        return false;
    }
  }
  return true;
}

namespace {

/// Big-G model of "v(out+,out-) = gain * v(c+,c-)": output conductance plus
/// a transconductance pushing the output toward the target voltage.
void emit_forced_vcvs(Circuit& out, const std::string& name, const std::string& op,
                      const std::string& on, const std::string& cp, const std::string& cn,
                      double gain, double big_g) {
  out.add_conductance(name + ".go", op, on, big_g);
  // At out+: +Gbig*(V+ - V-) - gain*Gbig*(Vc+ - Vc-) = external current.
  out.add_vccs(name + ".gmu", on, op, cp, cn, gain * big_g);
}

}  // namespace

Circuit canonicalize(const Circuit& circuit) {
  if (circuit.has_devices()) {
    throw std::invalid_argument(
        "canonicalize: circuit contains nonlinear devices; solve a DC operating point and "
        "linearize (dc::linearize_at) first");
  }
  const std::vector<double> conductances = circuit.conductance_values();
  const double mean_g = numeric::geometric_mean(conductances);
  const double gyrator_g = mean_g > 0.0 ? mean_g : 1e-3;
  const double peak = numeric::max_abs(conductances);
  // VCVS outputs and current senses share one big G.
  const double big_g = peak > 0.0 ? 1e6 * peak : 1.0;
  const double opamp_gm = peak > 0.0 ? 1e4 * peak : 1.0;

  Circuit out;
  out.title = circuit.title;
  // Preserve node order so indices stay comparable with the input circuit.
  for (int i = 1; i < circuit.node_count(); ++i) {
    out.node(circuit.node_name(i));
  }

  // Current-sensing V sources referenced by F/H elements become sense
  // conductances; remember their terminals for the controlled outputs.
  struct SenseInfo {
    std::string pos, neg;
  };
  std::map<std::string, SenseInfo> senses;
  for (const Element& e : circuit.elements()) {
    if (e.kind != ElementKind::Cccs && e.kind != ElementKind::Ccvs) continue;
    const Element* branch = circuit.find_element(e.ctrl_branch);
    if (branch == nullptr || branch->kind != ElementKind::VoltageSource) {
      throw std::invalid_argument("canonicalize: element '" + e.name +
                                  "' controls through '" + e.ctrl_branch +
                                  "', which is not a voltage source");
    }
    if (senses.find(e.ctrl_branch) == senses.end()) {
      const std::string p = circuit.node_name(branch->node_pos);
      const std::string n = circuit.node_name(branch->node_neg);
      out.add_conductance(e.ctrl_branch + ".gs", p, n, big_g);
      senses[e.ctrl_branch] = {p, n};
    }
  }

  for (const Element& e : circuit.elements()) {
    const std::string np = circuit.node_name(e.node_pos);
    const std::string nn = circuit.node_name(e.node_neg);
    switch (e.kind) {
      case ElementKind::Conductance:
        out.add_conductance(e.name, np, nn, e.value);
        break;
      case ElementKind::Capacitor:
        out.add_capacitor(e.name, np, nn, e.value);
        break;
      case ElementKind::Vccs:
        out.add_vccs(e.name, np, nn, circuit.node_name(e.ctrl_pos),
                     circuit.node_name(e.ctrl_neg), e.value);
        break;
      case ElementKind::Resistor:
        out.add_conductance(e.name, np, nn, 1.0 / e.value);
        break;
      case ElementKind::Inductor: {
        // Gyrator-C: i(np->nn) = (V(np)-V(nn)) / (s L) with C = L * gg^2.
        const std::string internal = e.name + ".x";
        out.add_vccs(e.name + ".gy1", np, nn, internal, "0", gyrator_g);
        out.add_vccs(e.name + ".gy2", internal, "0", nn, np, gyrator_g);
        out.add_capacitor(e.name + ".cx", internal, "0",
                          e.value * gyrator_g * gyrator_g);
        break;
      }
      case ElementKind::Vcvs:
        emit_forced_vcvs(out, e.name, np, nn, circuit.node_name(e.ctrl_pos),
                         circuit.node_name(e.ctrl_neg), e.value, big_g);
        break;
      case ElementKind::IdealOpAmp: {
        // Nullor approximated by a single large transconductance driving
        // the output node: KCL at the output forces v(ctrl+) - v(ctrl-) =
        // -I_out / gm_A -> ~0. One large factor instead of the VCVS model's
        // two keeps the matrix entry spread (and thus the evaluation error
        // of the interpolation engine) small.
        out.add_vccs(e.name + ".gma", "0", np, circuit.node_name(e.ctrl_pos),
                     circuit.node_name(e.ctrl_neg), opamp_gm);
        break;
      }
      case ElementKind::Cccs: {
        const SenseInfo& sense = senses.at(e.ctrl_branch);
        // Sense current = Gs * (Vp - Vq); replicate gain * that current.
        out.add_vccs(e.name, np, nn, sense.pos, sense.neg, e.value * big_g);
        break;
      }
      case ElementKind::Ccvs: {
        const SenseInfo& sense = senses.at(e.ctrl_branch);
        emit_forced_vcvs(out, e.name, np, nn, sense.pos, sense.neg, e.value * big_g, big_g);
        break;
      }
      case ElementKind::VoltageSource:
      case ElementKind::CurrentSource:
        SYMREF_DEBUG("canonicalize: dropping independent source '" << e.name << "'");
        break;
    }
  }
  return out;
}

}  // namespace symref::netlist
