#include "dc/linearize.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "devices/models.h"
#include "netlist/devices.h"

namespace symref::dc {

using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using netlist::Element;
using netlist::ElementKind;

namespace {

/// Union-find over circuit node indices; ground (0) always wins a merge,
/// otherwise the lower index does — deterministic representatives.
class NodeMerge {
 public:
  explicit NodeMerge(int count) : parent_(static_cast<std::size_t>(count)) {
    for (int i = 0; i < count; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }

  int find(int i) {
    while (parent_[static_cast<std::size_t>(i)] != i) {
      parent_[static_cast<std::size_t>(i)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(i)])];
      i = parent_[static_cast<std::size_t>(i)];
    }
    return i;
  }

  void merge(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    const int keep = std::min(a, b);
    const int gone = std::max(a, b);
    parent_[static_cast<std::size_t>(gone)] = keep;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

Circuit linearize_at(const Circuit& circuit, const OpResult& op) {
  if (op.devices.size() != circuit.devices().size()) {
    throw std::invalid_argument(
        "linearize_at: operating point does not match the circuit (device count differs)");
  }
  for (std::size_t i = 0; i < op.devices.size(); ++i) {
    if (op.devices[i].name != circuit.devices()[i].name) {
      throw std::invalid_argument("linearize_at: operating point lists device '" +
                                  op.devices[i].name + "' where the circuit has '" +
                                  circuit.devices()[i].name + "'");
    }
  }

  // Voltage sources whose branch current is sensed must survive as
  // elements; every other one merges its terminal pair.
  std::set<std::string> sensed;
  for (const Element& e : circuit.elements()) {
    if (e.kind == ElementKind::Cccs || e.kind == ElementKind::Ccvs) sensed.insert(e.ctrl_branch);
  }

  NodeMerge merge(circuit.node_count());
  for (const Element& e : circuit.elements()) {
    if (e.kind == ElementKind::VoltageSource && sensed.count(e.name) == 0) {
      merge.merge(e.node_pos, e.node_neg);
    }
  }

  auto mapped = [&](int node) -> std::string {
    const int rep = merge.find(node);
    return rep == 0 ? std::string("0") : circuit.node_name(rep);
  };

  Circuit out;
  out.title = circuit.title;

  for (const Element& e : circuit.elements()) {
    const std::string np = mapped(e.node_pos);
    const std::string nn = mapped(e.node_neg);
    switch (e.kind) {
      case ElementKind::Resistor:
        out.add_resistor(e.name, np, nn, e.value);
        break;
      case ElementKind::Conductance:
        out.add_conductance(e.name, np, nn, e.value);
        break;
      case ElementKind::Capacitor:
        out.add_capacitor(e.name, np, nn, e.value);
        break;
      case ElementKind::Inductor:
        out.add_inductor(e.name, np, nn, e.value);
        break;
      case ElementKind::Vccs:
        out.add_vccs(e.name, np, nn, mapped(e.ctrl_pos), mapped(e.ctrl_neg), e.value);
        break;
      case ElementKind::Vcvs:
        out.add_vcvs(e.name, np, nn, mapped(e.ctrl_pos), mapped(e.ctrl_neg), e.value);
        break;
      case ElementKind::Cccs:
        out.add_cccs(e.name, np, nn, e.ctrl_branch, e.value);
        break;
      case ElementKind::Ccvs:
        out.add_ccvs(e.name, np, nn, e.ctrl_branch, e.value);
        break;
      case ElementKind::VoltageSource:
        // Only sensed sources reach here un-merged; they act as the AC
        // short their DC role implies, with no AC drive of their own.
        if (sensed.count(e.name) != 0) {
          out.add_vsource(e.name, np, nn, 0.0);
        }
        break;
      case ElementKind::CurrentSource:
        break;  // AC open
      case ElementKind::IdealOpAmp:
        out.add_opamp(e.name, np, mapped(e.ctrl_pos), mapped(e.ctrl_neg));
        break;
    }
  }

  for (std::size_t i = 0; i < circuit.devices().size(); ++i) {
    const Device& d = circuit.devices()[i];
    const OpDeviceInfo& info = op.devices[i];
    const double pol = static_cast<double>(d.polarity);
    switch (d.kind) {
      case DeviceKind::kDiode: {
        // Model-frame junction voltage: the op table stores the terminal
        // frame (pol * vd).
        const devices::DiodeSmallSignal ss =
            devices::diode_small_signal(d.model, pol * info.value("vd"));
        const std::string a = mapped(d.nodes[0]);
        const std::string c = mapped(d.nodes[1]);
        if (ss.gd != 0.0) out.add_conductance(d.name + ".gd", a, c, ss.gd);
        if (ss.c > 0.0) out.add_capacitor(d.name + ".cd", a, c, ss.c);
        break;
      }
      case DeviceKind::kBjt: {
        const netlist::BjtParams p = devices::bjt_small_signal(d.model, info.value("ic"));
        netlist::expand_bjt(out, d.name, mapped(d.nodes[0]), mapped(d.nodes[1]),
                            mapped(d.nodes[2]), p);
        break;
      }
      case DeviceKind::kMos: {
        const netlist::MosParams p = devices::mos_small_signal(
            d.model, pol * info.value("vgs"), pol * info.value("vds"));
        netlist::expand_mos(out, d.name, mapped(d.nodes[0]), mapped(d.nodes[1]),
                            mapped(d.nodes[2]), p);
        break;
      }
    }
  }

  return out;
}

Circuit linearize(const Circuit& circuit, support::CancellationToken cancel) {
  return linearize_at(circuit, solve_op(circuit, std::move(cancel)));
}

}  // namespace symref::dc
