#include "circuits/ladder.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace symref::circuits {

namespace {
/// "<prefix><index>", appended: GCC 12 warns -Wrestrict on `const char* + std::string`.
std::string indexed(std::string prefix, int index) { return prefix.append(std::to_string(index)); }
}  // namespace

netlist::Circuit rc_ladder(int stages, double resistance, double capacitance) {
  if (stages < 1) throw std::invalid_argument("rc_ladder: stages must be >= 1");
  netlist::Circuit c;
  c.title = indexed("rc-ladder-", stages);
  std::string previous = "in";
  for (int i = 1; i <= stages; ++i) {
    const std::string node = indexed("n", i);
    c.add_resistor(indexed("r", i), previous, node, resistance);
    c.add_capacitor(indexed("c", i), node, "0", capacitance);
    previous = node;
  }
  return c;
}

mna::TransferSpec rc_ladder_spec(int stages) {
  return mna::TransferSpec::voltage_gain("in", indexed("n", stages));
}

netlist::Circuit gm_c_chain(int stages, double decades_of_spread, double base_gm,
                            double base_c) {
  if (stages < 1) throw std::invalid_argument("gm_c_chain: stages must be >= 1");
  netlist::Circuit c;
  c.title = indexed("gm-c-chain-", stages);
  std::string previous = "in";
  // A tiny input-termination conductance keeps the input node non-floating.
  c.add_conductance("gin", "in", "0", base_gm / 10.0);
  for (int i = 1; i <= stages; ++i) {
    const std::string node = indexed("n", i);
    // Element values sweep log-linearly across the requested spread, so
    // consecutive coefficient ratios vary from stage to stage.
    const double position =
        stages > 1 ? static_cast<double>(i - 1) / static_cast<double>(stages - 1) : 0.0;
    const double scale = std::pow(10.0, decades_of_spread * (position - 0.5));
    c.add_vccs(indexed("gm", i), node, "0", previous, "0", base_gm * scale);
    c.add_conductance(indexed("gl", i), node, "0", base_gm * scale / 20.0);
    c.add_capacitor(indexed("c", i), node, "0", base_c / scale);
    previous = node;
  }
  return c;
}

mna::TransferSpec gm_c_chain_spec(int stages) {
  return mna::TransferSpec::voltage_gain("in", indexed("n", stages));
}

netlist::Circuit grid_mesh(int rows, int cols, double resistance, double capacitance) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid_mesh: rows/cols must be >= 1");
  netlist::Circuit c;
  c.title = indexed("grid-mesh-", rows) + indexed("x", cols);
  auto node = [](int r, int col) {
    return indexed("m", r) + indexed("_", col);
  };
  int element = 0;
  for (int r = 1; r <= rows; ++r) {
    for (int col = 1; col <= cols; ++col) {
      if (col < cols) {
        c.add_resistor(indexed("rh", ++element), node(r, col), node(r, col + 1),
                       resistance);
      }
      if (r < rows) {
        c.add_resistor(indexed("rv", ++element), node(r, col), node(r + 1, col),
                       resistance);
      }
      c.add_capacitor(indexed("cg", ++element), node(r, col), "0", capacitance);
    }
  }
  c.add_resistor("rload", node(rows, cols), "0", resistance);
  return c;
}

mna::TransferSpec grid_mesh_spec(int rows, int cols) {
  return mna::TransferSpec::voltage_gain("m1_1",
                                         indexed("m", rows) + indexed("_", cols));
}

netlist::Circuit random_rc(support::Rng& rng, const RandomRcOptions& options) {
  netlist::Circuit c;
  c.title = "random-rc";
  auto node_name = [](int i) { return i == 0 ? std::string("0") : indexed("n", i); };
  int element = 0;

  // Resistor spanning tree over nodes 0..nodes: node i attaches to a random
  // earlier node, so the conductance graph is connected and grounded.
  for (int i = 1; i <= options.nodes; ++i) {
    const int parent = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(i)));
    c.add_resistor(indexed("rt", ++element), node_name(i), node_name(parent),
                   rng.log_uniform(options.r_min, options.r_max));
  }
  for (int i = 0; i < options.extra_resistors; ++i) {
    const int a = static_cast<int>(rng.uniform_index(options.nodes + 1));
    int b = static_cast<int>(rng.uniform_index(options.nodes + 1));
    if (a == b) b = (b + 1) % (options.nodes + 1);
    c.add_resistor(indexed("rx", ++element), node_name(a), node_name(b),
                   rng.log_uniform(options.r_min, options.r_max));
  }
  for (int i = 0; i < options.capacitors; ++i) {
    const int a = static_cast<int>(rng.uniform_index(options.nodes)) + 1;  // not ground
    int b = static_cast<int>(rng.uniform_index(options.nodes + 1));
    if (a == b) b = 0;
    c.add_capacitor(indexed("cx", ++element), node_name(a), node_name(b),
                    rng.log_uniform(options.c_min, options.c_max));
  }
  return c;
}

}  // namespace symref::circuits
