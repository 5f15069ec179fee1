#include "mna/assembler.h"

#include "mna/errors.h"

namespace symref::mna {

using netlist::Device;
using netlist::Element;
using netlist::ElementKind;

void stamp_entry(std::vector<sparse::PatternStamp>& stamps, int row, int col, double g,
                 double c) {
  if (row >= 0 && col >= 0) stamps.push_back({row, col, g, c});
}

void stamp_admittance(std::vector<sparse::PatternStamp>& stamps, int ra, int rb, double g,
                      double c) {
  stamp_entry(stamps, ra, ra, g, c);
  stamp_entry(stamps, rb, rb, g, c);
  stamp_entry(stamps, ra, rb, -g, -c);
  stamp_entry(stamps, rb, ra, -g, -c);
}

StampTable build_stamp_table(const netlist::Circuit& circuit) {
  StampTable table;
  // Active nodes: touched by at least one element or device terminal
  // (ground excluded).
  std::vector<bool> active(static_cast<std::size_t>(circuit.node_count()), false);
  auto touch = [&](int node) {
    if (node >= 0) active[static_cast<std::size_t>(node)] = true;
  };
  for (const Element& e : circuit.elements()) {
    touch(e.node_pos);
    touch(e.node_neg);
    touch(e.ctrl_pos);
    touch(e.ctrl_neg);
  }
  for (const Device& d : circuit.devices()) {
    for (const int node : d.nodes) touch(node);
  }
  table.node_to_row.assign(static_cast<std::size_t>(circuit.node_count()), -1);
  int next = 0;
  for (int n = 1; n < circuit.node_count(); ++n) {
    if (active[static_cast<std::size_t>(n)]) table.node_to_row[static_cast<std::size_t>(n)] = next++;
  }
  table.node_rows = next;
  for (const Element& e : circuit.elements()) {
    if (e.needs_branch_current()) table.branch_rows.emplace(e.name, next++);
  }
  table.dim = next;

  // Every element stamp, in element order. MNA values are affine in s;
  // PatternStamp.conductance carries the s^0 part and .capacitance the s^1
  // part (C and -L).
  std::vector<sparse::PatternStamp>& stamps = table.stamps;
  stamps.reserve(4 * circuit.elements().size());
  auto row_of = [&](int node) { return table.row_of(node); };
  auto add = [&](int r, int c, double base, double reactive) {
    stamp_entry(stamps, r, c, base, reactive);
  };
  auto stamp_branch = [&](const Element& e, int k) {
    add(row_of(e.node_pos), k, 1.0, 0.0);
    add(row_of(e.node_neg), k, -1.0, 0.0);
    add(k, row_of(e.node_pos), 1.0, 0.0);
    add(k, row_of(e.node_neg), -1.0, 0.0);
  };
  // Row of the branch current a CCCS/CCVS senses; -1 (and the deferred
  // error) when the controlling element has none.
  auto sensed_branch = [&](const Element& e, const char* kind) {
    const auto it = table.branch_rows.find(e.ctrl_branch);
    if (it != table.branch_rows.end()) return it->second;
    table.error = std::string(kind) + " '" + e.name + "': controlling element '" +
                  e.ctrl_branch + "' has no branch current";
    return -1;
  };

  for (std::size_t index = 0; index < circuit.elements().size(); ++index) {
    const Element& e = circuit.elements()[index];
    const int element = static_cast<int>(index);
    const int k = e.needs_branch_current() ? table.branch_rows.at(e.name) : -1;
    switch (e.kind) {
      case ElementKind::Resistor:
        stamp_admittance(stamps, row_of(e.node_pos), row_of(e.node_neg), 1.0 / e.value, 0.0);
        break;
      case ElementKind::Conductance:
        stamp_admittance(stamps, row_of(e.node_pos), row_of(e.node_neg), e.value, 0.0);
        break;
      case ElementKind::Capacitor:
        stamp_admittance(stamps, row_of(e.node_pos), row_of(e.node_neg), 0.0, e.value);
        break;
      case ElementKind::Vccs: {
        // i(a->b) = gm * v(c, d); SPICE sign convention.
        const int ra = row_of(e.node_pos);
        const int rb = row_of(e.node_neg);
        add(ra, row_of(e.ctrl_pos), e.value, 0.0);
        add(ra, row_of(e.ctrl_neg), -e.value, 0.0);
        add(rb, row_of(e.ctrl_pos), -e.value, 0.0);
        add(rb, row_of(e.ctrl_neg), e.value, 0.0);
        break;
      }
      case ElementKind::CurrentSource: {
        // Positive current flows n+ -> n- through the source: extracted at
        // n+, injected at n-.
        const int ra = row_of(e.node_pos);
        const int rb = row_of(e.node_neg);
        if (ra >= 0) table.sources.push_back({ra, -1.0, element});
        if (rb >= 0) table.sources.push_back({rb, 1.0, element});
        break;
      }
      case ElementKind::VoltageSource:
        stamp_branch(e, k);
        table.sources.push_back({k, 1.0, element});
        break;
      case ElementKind::Inductor:
        stamp_branch(e, k);
        add(k, k, 0.0, -e.value);
        break;
      case ElementKind::Vcvs:
        stamp_branch(e, k);
        add(k, row_of(e.ctrl_pos), -e.value, 0.0);
        add(k, row_of(e.ctrl_neg), e.value, 0.0);
        break;
      case ElementKind::Cccs: {
        const int kc = sensed_branch(e, "CCCS");
        if (kc < 0) break;
        add(row_of(e.node_pos), kc, e.value, 0.0);
        add(row_of(e.node_neg), kc, -e.value, 0.0);
        break;
      }
      case ElementKind::Ccvs: {
        const int kc = sensed_branch(e, "CCVS");
        if (kc < 0) break;
        stamp_branch(e, k);
        add(k, kc, -e.value, 0.0);
        break;
      }
      case ElementKind::IdealOpAmp:
        // Nullor: output branch current is whatever keeps v(ctrl+)==v(ctrl-).
        add(row_of(e.node_pos), k, 1.0, 0.0);
        add(row_of(e.node_neg), k, -1.0, 0.0);
        add(k, row_of(e.ctrl_pos), 1.0, 0.0);
        add(k, row_of(e.ctrl_neg), -1.0, 0.0);
        break;
    }
    if (!table.error.empty()) break;
  }
  return table;
}

SpecRows resolve_spec(const netlist::Circuit& circuit, const std::vector<int>& node_to_row,
                      const TransferSpec& spec, std::string_view who) {
  auto resolve = [&](const std::string& name, const char* what) -> int {
    const auto node = circuit.find_node(name);
    if (!node) {
      throw SpecError(std::string(who) + ": unknown " + what + " node '" + name + "'");
    }
    if (*node == 0) return -1;
    const int row = node_to_row[static_cast<std::size_t>(*node)];
    if (row < 0) {
      throw SpecError(std::string(who) + ": " + what + " node '" + name + "' is floating");
    }
    return row;
  };
  SpecRows rows;
  rows.in_pos = resolve(spec.in_pos, "input+");
  rows.in_neg = resolve(spec.in_neg, "input-");
  rows.out_pos = resolve(spec.out_pos, "output+");
  rows.out_neg = resolve(spec.out_neg, "output-");
  if (rows.in_pos == rows.in_neg) {
    throw SpecError(std::string(who) + ": input pair is degenerate");
  }
  return rows;
}

}  // namespace symref::mna
