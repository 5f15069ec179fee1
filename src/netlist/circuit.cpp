#include "netlist/circuit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

namespace symref::netlist {

const char* kind_name(ElementKind kind) noexcept {
  switch (kind) {
    case ElementKind::Resistor: return "resistor";
    case ElementKind::Conductance: return "conductance";
    case ElementKind::Capacitor: return "capacitor";
    case ElementKind::Inductor: return "inductor";
    case ElementKind::Vccs: return "vccs";
    case ElementKind::Vcvs: return "vcvs";
    case ElementKind::Cccs: return "cccs";
    case ElementKind::Ccvs: return "ccvs";
    case ElementKind::VoltageSource: return "vsource";
    case ElementKind::CurrentSource: return "isource";
    case ElementKind::IdealOpAmp: return "opamp";
  }
  return "?";
}

const char* device_kind_name(DeviceKind kind) noexcept {
  switch (kind) {
    case DeviceKind::kDiode: return "diode";
    case DeviceKind::kBjt: return "bjt";
    case DeviceKind::kMos: return "mos";
  }
  return "?";
}

bool is_ground_name(std::string_view name) noexcept {
  return name == "0" || name == "gnd" || name == "GND" || name == "Gnd";
}

double Waveform::value_at(double t, double dc) const noexcept {
  switch (kind) {
    case WaveformKind::kDc:
      return dc;
    case WaveformKind::kPulse: {
      double tp = t - delay;
      if (tp < 0.0) return v1;
      if (period > 0.0) tp = std::fmod(tp, period);
      if (tp < rise) {
        // rise == 0 never reaches here (tp < 0 is impossible after the
        // clamp), so the edge is instantaneous.
        return v1 + (v2 - v1) * (tp / rise);
      }
      tp -= rise;
      if (width > 0.0 && tp >= width) {
        tp -= width;
        if (tp < fall) return v2 + (v1 - v2) * (tp / fall);
        return v1;
      }
      return v2;  // width == 0: hold the pulsed level for the rest
    }
    case WaveformKind::kSin: {
      const double tp = t - delay;
      if (tp < 0.0) return v1;
      const double envelope = damping > 0.0 ? std::exp(-tp * damping) : 1.0;
      return v1 + v2 * envelope * std::sin(2.0 * 3.141592653589793238462643 * frequency * tp);
    }
  }
  return dc;
}

Circuit::Circuit() {
  node_names_.emplace_back("0");
  alias_.push_back(0);
}

int Circuit::resolve_alias(int index) const noexcept {
  while (alias_[static_cast<std::size_t>(index)] != index) {
    index = alias_[static_cast<std::size_t>(index)];
  }
  return index;
}

int Circuit::node(std::string_view name) {
  if (is_ground_name(name)) return 0;
  for (std::size_t i = 1; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) return resolve_alias(static_cast<int>(i));
  }
  node_names_.emplace_back(name);
  alias_.push_back(static_cast<int>(node_names_.size()) - 1);
  return static_cast<int>(node_names_.size()) - 1;
}

std::optional<int> Circuit::find_node(std::string_view name) const {
  if (is_ground_name(name)) return 0;
  for (std::size_t i = 1; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) return resolve_alias(static_cast<int>(i));
  }
  return std::nullopt;
}

void Circuit::validate_new_element(const Element& element) const {
  auto check_node = [&](int index, const char* what) {
    if (index < 0 || index >= node_count()) {
      throw std::invalid_argument("element '" + element.name + "': bad " + what + " node");
    }
  };
  check_node(element.node_pos, "positive");
  check_node(element.node_neg, "negative");
  if (element.kind == ElementKind::Vccs || element.kind == ElementKind::Vcvs ||
      element.kind == ElementKind::IdealOpAmp) {
    check_node(element.ctrl_pos, "control positive");
    check_node(element.ctrl_neg, "control negative");
  }
  if (!std::isfinite(element.value)) {
    throw std::invalid_argument("element '" + element.name + "': non-finite value");
  }
  if (element.name.empty()) {
    throw std::invalid_argument("element with empty name");
  }
  if (find_element(element.name) != nullptr) {
    throw std::invalid_argument("duplicate element name '" + element.name + "'");
  }
  if ((element.kind == ElementKind::Resistor || element.kind == ElementKind::Capacitor ||
       element.kind == ElementKind::Inductor) &&
      element.value == 0.0) {
    throw std::invalid_argument("element '" + element.name + "': zero-valued " +
                                kind_name(element.kind));
  }
}

Element& Circuit::add(Element element) {
  validate_new_element(element);
  elements_.push_back(std::move(element));
  return elements_.back();
}

Element& Circuit::add_resistor(std::string name, std::string_view np, std::string_view nn,
                               double ohms) {
  Element e;
  e.kind = ElementKind::Resistor;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = ohms;
  return add(std::move(e));
}

Element& Circuit::add_conductance(std::string name, std::string_view np, std::string_view nn,
                                  double siemens) {
  Element e;
  e.kind = ElementKind::Conductance;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = siemens;
  return add(std::move(e));
}

Element& Circuit::add_capacitor(std::string name, std::string_view np, std::string_view nn,
                                double farads) {
  Element e;
  e.kind = ElementKind::Capacitor;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = farads;
  return add(std::move(e));
}

Element& Circuit::add_inductor(std::string name, std::string_view np, std::string_view nn,
                               double henries) {
  Element e;
  e.kind = ElementKind::Inductor;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = henries;
  return add(std::move(e));
}

Element& Circuit::add_vccs(std::string name, std::string_view np, std::string_view nn,
                           std::string_view cp, std::string_view cn, double gm) {
  Element e;
  e.kind = ElementKind::Vccs;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.ctrl_pos = node(cp);
  e.ctrl_neg = node(cn);
  e.value = gm;
  return add(std::move(e));
}

Element& Circuit::add_vcvs(std::string name, std::string_view np, std::string_view nn,
                           std::string_view cp, std::string_view cn, double gain) {
  Element e;
  e.kind = ElementKind::Vcvs;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.ctrl_pos = node(cp);
  e.ctrl_neg = node(cn);
  e.value = gain;
  return add(std::move(e));
}

Element& Circuit::add_cccs(std::string name, std::string_view np, std::string_view nn,
                           std::string ctrl_branch, double gain) {
  Element e;
  e.kind = ElementKind::Cccs;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.ctrl_branch = std::move(ctrl_branch);
  e.value = gain;
  return add(std::move(e));
}

Element& Circuit::add_ccvs(std::string name, std::string_view np, std::string_view nn,
                           std::string ctrl_branch, double ohms) {
  Element e;
  e.kind = ElementKind::Ccvs;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.ctrl_branch = std::move(ctrl_branch);
  e.value = ohms;
  return add(std::move(e));
}

Element& Circuit::add_vsource(std::string name, std::string_view np, std::string_view nn,
                              double magnitude) {
  Element e;
  e.kind = ElementKind::VoltageSource;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = magnitude;
  return add(std::move(e));
}

Element& Circuit::add_isource(std::string name, std::string_view np, std::string_view nn,
                              double magnitude) {
  Element e;
  e.kind = ElementKind::CurrentSource;
  e.name = std::move(name);
  e.node_pos = node(np);
  e.node_neg = node(nn);
  e.value = magnitude;
  return add(std::move(e));
}

Element& Circuit::add_opamp(std::string name, std::string_view out, std::string_view inp,
                            std::string_view inn) {
  Element e;
  e.kind = ElementKind::IdealOpAmp;
  e.name = std::move(name);
  e.node_pos = node(out);
  e.node_neg = 0;
  e.ctrl_pos = node(inp);
  e.ctrl_neg = node(inn);
  e.value = 0.0;
  return add(std::move(e));
}

Device& Circuit::add_device(Device device) {
  if (device.name.empty()) {
    throw std::invalid_argument("device with empty name");
  }
  if (find_element(device.name) != nullptr || find_device(device.name) != nullptr) {
    throw std::invalid_argument("duplicate device name '" + device.name + "'");
  }
  if (device.polarity != 1 && device.polarity != -1) {
    throw std::invalid_argument("device '" + device.name + "': polarity must be +1 or -1");
  }
  const int terminals = device.kind == DeviceKind::kDiode ? 2 : 3;
  for (int t = 0; t < terminals; ++t) {
    if (device.nodes[t] < 0 || device.nodes[t] >= node_count()) {
      throw std::invalid_argument("device '" + device.name + "': bad terminal node");
    }
  }
  const DeviceModel& m = device.model;
  for (const double p : {m.is, m.n, m.tt, m.cj, m.bf, m.br, m.vaf, m.tf, m.cje, m.cjc, m.ccs,
                         m.rb, m.kp, m.vto, m.lambda, m.cgs, m.cgd, m.cdb}) {
    if (!std::isfinite(p)) {
      throw std::invalid_argument("device '" + device.name + "': non-finite model parameter");
    }
  }
  if (m.is <= 0.0 || m.n <= 0.0) {
    throw std::invalid_argument("device '" + device.name +
                                "': saturation current and emission coefficient must be positive");
  }
  devices_.push_back(std::move(device));
  return devices_.back();
}

Device& Circuit::add_diode(std::string name, std::string_view anode, std::string_view cathode,
                           const DeviceModel& model, int polarity) {
  Device d;
  d.kind = DeviceKind::kDiode;
  d.name = std::move(name);
  d.polarity = polarity;
  d.nodes[0] = node(anode);
  d.nodes[1] = node(cathode);
  d.model = model;
  return add_device(std::move(d));
}

Device& Circuit::add_bjt(std::string name, std::string_view collector, std::string_view base,
                         std::string_view emitter, const DeviceModel& model, int polarity) {
  Device d;
  d.kind = DeviceKind::kBjt;
  d.name = std::move(name);
  d.polarity = polarity;
  d.nodes[0] = node(collector);
  d.nodes[1] = node(base);
  d.nodes[2] = node(emitter);
  d.model = model;
  return add_device(std::move(d));
}

Device& Circuit::add_mos(std::string name, std::string_view drain, std::string_view gate,
                         std::string_view source, const DeviceModel& model, int polarity) {
  Device d;
  d.kind = DeviceKind::kMos;
  d.name = std::move(name);
  d.polarity = polarity;
  d.nodes[0] = node(drain);
  d.nodes[1] = node(gate);
  d.nodes[2] = node(source);
  d.model = model;
  return add_device(std::move(d));
}

const Device* Circuit::find_device(std::string_view name) const noexcept {
  for (const Device& d : devices_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const Element* Circuit::find_element(std::string_view name) const noexcept {
  for (const Element& e : elements_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Element* Circuit::mutable_element(std::string_view name) noexcept {
  for (Element& e : elements_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Circuit::set_initial_condition(std::string_view node_name, double volts) {
  if (!std::isfinite(volts)) {
    throw std::invalid_argument(".ic: non-finite voltage for node '" + std::string(node_name) +
                                "'");
  }
  const std::optional<int> index = find_node(node_name);
  if (!index.has_value()) {
    throw std::invalid_argument(".ic: unknown node '" + std::string(node_name) + "'");
  }
  if (*index == 0) {
    throw std::invalid_argument(".ic: cannot set ground node '" + std::string(node_name) + "'");
  }
  for (auto& [node, value] : initial_conditions_) {
    if (node == *index) {
      value = volts;
      return;
    }
  }
  initial_conditions_.emplace_back(*index, volts);
}

bool Circuit::remove_element(std::string_view name) {
  const auto it = std::find_if(elements_.begin(), elements_.end(),
                               [&](const Element& e) { return e.name == name; });
  if (it == elements_.end()) return false;
  elements_.erase(it);
  return true;
}

bool Circuit::set_element_value(std::string_view name, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("set_element_value: value for '" + std::string(name) +
                                "' is not finite");
  }
  const auto it = std::find_if(elements_.begin(), elements_.end(),
                               [&](const Element& e) { return e.name == name; });
  if (it == elements_.end()) return false;
  it->value = value;
  return true;
}

bool Circuit::short_element(std::string_view name) {
  const auto it = std::find_if(elements_.begin(), elements_.end(),
                               [&](const Element& e) { return e.name == name; });
  if (it == elements_.end()) return false;
  const int keep = std::min(it->node_pos, it->node_neg);
  const int gone = std::max(it->node_pos, it->node_neg);
  elements_.erase(it);
  if (keep == gone) return true;
  auto remap = [&](int n) { return n == gone ? keep : n; };
  for (Element& e : elements_) {
    e.node_pos = remap(e.node_pos);
    e.node_neg = remap(e.node_neg);
    if (e.ctrl_pos >= 0) e.ctrl_pos = remap(e.ctrl_pos);
    if (e.ctrl_neg >= 0) e.ctrl_neg = remap(e.ctrl_neg);
  }
  for (Device& d : devices_) {
    for (int& n : d.nodes) {
      if (n >= 0) n = remap(n);
    }
  }
  // The merged node keeps its slot in node_names_ so indices stay stable;
  // its name now aliases the survivor so lookups keep working.
  alias_[static_cast<std::size_t>(gone)] = keep;
  return true;
}

std::vector<double> Circuit::capacitor_values() const {
  std::vector<double> values;
  for (const Element& e : elements_) {
    if (e.kind == ElementKind::Capacitor) values.push_back(e.value);
  }
  return values;
}

std::vector<double> Circuit::conductance_values() const {
  std::vector<double> values;
  for (const Element& e : elements_) {
    switch (e.kind) {
      case ElementKind::Resistor: values.push_back(1.0 / e.value); break;
      case ElementKind::Conductance: values.push_back(e.value); break;
      case ElementKind::Vccs: values.push_back(std::fabs(e.value)); break;
      default: break;
    }
  }
  return values;
}

std::size_t Circuit::count(ElementKind kind) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(elements_.begin(), elements_.end(),
                    [kind](const Element& e) { return e.kind == kind; }));
}

std::string Circuit::summary() const {
  std::map<std::string, int> counts;
  for (const Element& e : elements_) ++counts[kind_name(e.kind)];
  for (const Device& d : devices_) ++counts[device_kind_name(d.kind)];
  std::ostringstream os;
  os << (title.empty() ? "circuit" : title) << ": " << unknown_count() << " nodes";
  for (const auto& [kind, count] : counts) os << ", " << count << ' ' << kind;
  return os.str();
}

}  // namespace symref::netlist
