#include "netlist/canonical.h"

#include <set>
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

/// The branch-current node of element `name`: gg * v(name.x) is the current
/// from `p` through the element to `n` (`name.gy1`), and the KCL row of
/// name.x starts with gg * (v(cp) - v(cn)) (`name.gy2`). The caller adds the
/// rest of the element's constraint, scaled by gg, to that row.
std::string emit_branch_node(Circuit& out, const std::string& name, const std::string& p,
                             const std::string& n, const std::string& cp, const std::string& cn,
                             double gg) {
  const std::string x = name + ".x";
  out.add_vccs(name + ".gy1", p, n, x, "0", gg);
  out.add_vccs(name + ".gy2", x, "0", cp, cn, gg);
  return x;
}

}  // namespace

Circuit canonicalize(const Circuit& circuit) {
  if (circuit.has_devices()) {
    throw std::invalid_argument(
        "canonicalize: circuit contains nonlinear devices; solve a DC operating point and "
        "linearize (dc::linearize_at) first");
  }
  const double mean_g = numeric::geometric_mean(circuit.conductance_values());
  const double gg = mean_g > 0.0 ? mean_g : 1e-3;

  Circuit out;
  out.title = circuit.title;
  // Preserve node order so indices stay comparable with the input circuit.
  for (int i = 1; i < circuit.node_count(); ++i) {
    out.node(circuit.node_name(i));
  }

  // V sources that an F or H senses stay as 0 V branches; the rest drop.
  std::set<std::string> sensed;
  for (const Element& e : circuit.elements()) {
    if (e.kind != ElementKind::Cccs && e.kind != ElementKind::Ccvs) continue;
    const Element* branch = circuit.find_element(e.ctrl_branch);
    if (branch == nullptr || branch->kind != ElementKind::VoltageSource) {
      throw std::invalid_argument("canonicalize: element '" + e.name +
                                  "' controls through '" + e.ctrl_branch +
                                  "', which is not a voltage source");
    }
    sensed.insert(e.ctrl_branch);
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
        // -gg * (v(np) - v(nn)) + s * L * gg^2 * v(x) = 0: the current is
        // (v(np) - v(nn)) / (s L).
        const std::string x = emit_branch_node(out, e.name, np, nn, nn, np, gg);
        out.add_capacitor(e.name + ".cx", x, "0", e.value * gg * gg);
        break;
      }
      case ElementKind::Vcvs: {
        // gg * (v(np) - v(nn)) - gain * gg * (v(c+) - v(c-)) = 0.
        const std::string x = emit_branch_node(out, e.name, np, nn, np, nn, gg);
        out.add_vccs(e.name + ".gc", x, "0", circuit.node_name(e.ctrl_neg),
                     circuit.node_name(e.ctrl_pos), e.value * gg);
        break;
      }
      case ElementKind::IdealOpAmp:
        // Nullor: the nullator row gg * (v(c+) - v(c-)) = 0; the norator is
        // the output's branch current.
        emit_branch_node(out, e.name, np, nn, circuit.node_name(e.ctrl_pos),
                         circuit.node_name(e.ctrl_neg), gg);
        break;
      case ElementKind::Cccs:
        // gain * sensed current, the sense node's voltage times gg.
        out.add_vccs(e.name, np, nn, e.ctrl_branch + ".x", "0", e.value * gg);
        break;
      case ElementKind::Ccvs: {
        // gg * (v(np) - v(nn)) - ohms * gg * (gg * v(sense.x)) = 0.
        const std::string x = emit_branch_node(out, e.name, np, nn, np, nn, gg);
        out.add_vccs(e.name + ".gc", x, "0", "0", e.ctrl_branch + ".x", e.value * gg * gg);
        break;
      }
      case ElementKind::VoltageSource:
      case ElementKind::CurrentSource:
        if (sensed.count(e.name) != 0) {
          // A sensed V source is a 0 V branch: gg * (v(np) - v(nn)) = 0.
          emit_branch_node(out, e.name, np, nn, np, nn, gg);
        } else {
          SYMREF_DEBUG("canonicalize: dropping independent source '" << e.name << "'");
        }
        break;
    }
  }
  return out;
}

}  // namespace symref::netlist
