// In-memory circuit: a named-node graph of elements.
//
// Node index 0 is always ground ("0" or an alias). Elements keep node
// indices; the Circuit owns the name <-> index mapping. The class also
// provides the element-value statistics the adaptive engine's first-scale
// heuristic needs (§3.2 of the paper) and the short/remove editing
// operations used by Simplification Before Generation.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/device.h"
#include "netlist/element.h"

namespace symref::netlist {

/// The ground aliases "0", "gnd", "GND" and "Gnd": node index 0 in every
/// circuit, global inside subcircuit bodies.
[[nodiscard]] bool is_ground_name(std::string_view name) noexcept;

class Circuit {
 public:
  Circuit();

  /// Circuit title (from the netlist first line, or set programmatically).
  std::string title;

  // --- Nodes ---------------------------------------------------------------

  /// Index for `name`, creating the node if new. Ground aliases map to 0.
  /// Nodes merged by short_element() resolve to their surviving alias.
  int node(std::string_view name);

  /// Index for `name` if it exists (alias-resolved).
  [[nodiscard]] std::optional<int> find_node(std::string_view name) const;

  /// Total node count including ground.
  [[nodiscard]] int node_count() const noexcept { return static_cast<int>(node_names_.size()); }

  /// Non-ground node count (the dimension of the nodal admittance matrix).
  [[nodiscard]] int unknown_count() const noexcept { return node_count() - 1; }

  [[nodiscard]] const std::string& node_name(int index) const { return node_names_.at(static_cast<std::size_t>(index)); }

  // --- Elements ------------------------------------------------------------

  /// Append a validated element; throws std::invalid_argument on bad nodes,
  /// duplicate names or non-finite values.
  Element& add(Element element);

  Element& add_resistor(std::string name, std::string_view np, std::string_view nn, double ohms);
  Element& add_conductance(std::string name, std::string_view np, std::string_view nn,
                           double siemens);
  Element& add_capacitor(std::string name, std::string_view np, std::string_view nn,
                         double farads);
  Element& add_inductor(std::string name, std::string_view np, std::string_view nn,
                        double henries);
  Element& add_vccs(std::string name, std::string_view np, std::string_view nn,
                    std::string_view cp, std::string_view cn, double gm);
  Element& add_vcvs(std::string name, std::string_view np, std::string_view nn,
                    std::string_view cp, std::string_view cn, double gain);
  Element& add_cccs(std::string name, std::string_view np, std::string_view nn,
                    std::string ctrl_branch, double gain);
  Element& add_ccvs(std::string name, std::string_view np, std::string_view nn,
                    std::string ctrl_branch, double ohms);
  Element& add_vsource(std::string name, std::string_view np, std::string_view nn,
                       double magnitude = 1.0);
  Element& add_isource(std::string name, std::string_view np, std::string_view nn,
                       double magnitude = 1.0);
  Element& add_opamp(std::string name, std::string_view out, std::string_view inp,
                     std::string_view inn);

  [[nodiscard]] const std::vector<Element>& elements() const noexcept { return elements_; }
  [[nodiscard]] std::size_t element_count() const noexcept { return elements_.size(); }

  [[nodiscard]] const Element* find_element(std::string_view name) const noexcept;

  /// Mutable element lookup (e.g. to attach a transient Waveform to a parsed
  /// source). Node/name edits must go through the dedicated editing
  /// operations; nullptr when absent.
  [[nodiscard]] Element* mutable_element(std::string_view name) noexcept;

  /// Remove (open-circuit) an element. Returns false if absent.
  bool remove_element(std::string_view name);

  /// Overwrite an element's value in place. Unlike the add_* builders this
  /// accepts zero (an "opened" element whose stamp pattern must survive for
  /// plan replay); the value must still be finite. Returns false if absent.
  bool set_element_value(std::string_view name, double value);

  /// Short-circuit an element: its two terminals are merged (the kept node is
  /// the lower index / ground wins) and the element is removed. Controlled
  /// sources keep their control references through the merge.
  bool short_element(std::string_view name);

  // --- Nonlinear devices ----------------------------------------------------
  //
  // Devices make the circuit nonlinear: the AC/canonicalization path rejects
  // a circuit with devices (see netlist::is_canonical), and the dc:: Newton
  // solver + dc::linearize_at() turn it into a linear one at a bias point.

  /// Append a validated device; throws std::invalid_argument on bad nodes,
  /// a name that collides with an element or device, or non-finite model
  /// parameters.
  Device& add_device(Device device);

  Device& add_diode(std::string name, std::string_view anode, std::string_view cathode,
                    const DeviceModel& model, int polarity = 1);
  Device& add_bjt(std::string name, std::string_view collector, std::string_view base,
                  std::string_view emitter, const DeviceModel& model, int polarity = 1);
  Device& add_mos(std::string name, std::string_view drain, std::string_view gate,
                  std::string_view source, const DeviceModel& model, int polarity = 1);

  [[nodiscard]] const std::vector<Device>& devices() const noexcept { return devices_; }
  [[nodiscard]] bool has_devices() const noexcept { return !devices_.empty(); }

  [[nodiscard]] const Device* find_device(std::string_view name) const noexcept;

  // --- Initial conditions (.ic) ---------------------------------------------

  /// Pin a node's voltage at t = 0 for transient analysis (the `.ic`
  /// directive). Overrides the bias solution for that node; repeated
  /// settings of the same node keep the last value. Throws
  /// std::invalid_argument for ground or an unknown node.
  void set_initial_condition(std::string_view node_name, double volts);

  /// (node index, volts) pairs in first-set order.
  [[nodiscard]] const std::vector<std::pair<int, double>>& initial_conditions() const noexcept {
    return initial_conditions_;
  }

  // --- Statistics (scale-factor heuristics, §3.2) ---------------------------

  /// All capacitor values, in farads.
  [[nodiscard]] std::vector<double> capacitor_values() const;

  /// All "conductance-like" magnitudes: 1/R for resistors, G for
  /// conductances, |gm| for VCCS.
  [[nodiscard]] std::vector<double> conductance_values() const;

  [[nodiscard]] std::size_t count(ElementKind kind) const noexcept;

  /// One-line description: "ua741: 27 nodes, 24 C, 58 G/gm, ...".
  [[nodiscard]] std::string summary() const;

 private:
  void validate_new_element(const Element& element) const;
  [[nodiscard]] int resolve_alias(int index) const noexcept;

  std::vector<std::string> node_names_;
  /// alias_[i] == i normally; short_element() points merged nodes at their
  /// survivor so name lookups keep working.
  std::vector<int> alias_;
  std::vector<Element> elements_;
  std::vector<Device> devices_;
  std::vector<std::pair<int, double>> initial_conditions_;
};

}  // namespace symref::netlist
