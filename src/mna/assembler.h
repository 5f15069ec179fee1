// Full modified nodal analysis.
//
// Unknowns are the non-ground node voltages that at least one element (or
// device terminal) touches, plus one auxiliary branch current per element
// that needs it (V sources, VCVS, CCVS, inductors, ideal opamps). This is
// the paper's eq. (7): Y_MNA * X = E.
//
// Every MNA entry is affine in s (conductances and the ±1 incidence
// constants plus s*C / -s*L reactive parts), so one stamp table per circuit
// serves every analysis: the AC simulator assembles it at s = jω, the
// interpolation engine's NodalSystem merges it by position, the DC Newton
// solver assembles it at s = 0 plus device companions, and the transient
// integrator at the real point s = a0 (the step's G + a0·C) plus devices.
// build_stamp_table() is the only code that turns elements into matrix
// entries; every analysis merges its table (plus its own extra stamps) into
// a sparse::PatternedMatrix once, and each point rewrites only the value
// array — the pattern stability that lets every solver replay one
// SparseLu plan.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mna/transfer.h"
#include "netlist/circuit.h"
#include "sparse/matrix.h"

namespace symref::mna {

/// Stamp helpers shared by the table and the device companions: each skips
/// ground (row or column -1) and appends {row, col, g, c} entries, g the
/// conductance (s^0) part and c the capacitance (s^1) part.
void stamp_entry(std::vector<sparse::PatternStamp>& stamps, int row, int col, double g,
                 double c = 0.0);

/// Two-terminal admittance g + s·c between rows ra and rb.
void stamp_admittance(std::vector<sparse::PatternStamp>& stamps, int ra, int rb, double g,
                      double c = 0.0);

/// One independent source's right-hand-side entry: rhs[row] += sign * level,
/// where the level is the element's AC magnitude (value), DC level
/// (dc_value) or waveform sample, whichever the analysis drives.
struct SourceRow {
  int row = 0;
  double sign = 1.0;
  int element = -1;  // index into Circuit::elements()
};

/// The MNA stamp table of one circuit: Y_MNA(s) = G + s·C and the source
/// rows of E.
struct StampTable {
  int dim = 0;
  /// Node rows come first, in node order: [0, node_rows).
  int node_rows = 0;
  /// Row of each circuit node; -1 for ground and for nodes no element or
  /// device touches.
  std::vector<int> node_to_row;
  /// Auxiliary branch-current rows by element name (element order, after the
  /// node rows).
  std::map<std::string, int, std::less<>> branch_rows;
  /// Element stamps in element order; conductance is the G part and
  /// capacitance the C part.
  std::vector<sparse::PatternStamp> stamps;
  /// Independent-source rows in element order.
  std::vector<SourceRow> sources;
  /// Deferred stamp error (a CCCS/CCVS sensing a branchless element): the
  /// table is still built, its users throw std::invalid_argument with it.
  std::string error;

  [[nodiscard]] int row_of(int node) const noexcept {
    return node_to_row[static_cast<std::size_t>(node)];
  }
};

[[nodiscard]] StampTable build_stamp_table(const netlist::Circuit& circuit);

/// Rows of a TransferSpec's port nodes; -1 is ground.
struct SpecRows {
  int in_pos = -1;
  int in_neg = -1;
  int out_pos = -1;
  int out_neg = -1;
};

/// Resolve `spec` on `circuit` through its row map (node -> row, -1 for
/// ground and for nodes no element touches), by the rules every analysis
/// shares: an unknown node, a floating node or a degenerate input pair (both
/// inputs on one row, ground included) throws SpecError, whose message
/// starts with `who`.
[[nodiscard]] SpecRows resolve_spec(const netlist::Circuit& circuit,
                                    const std::vector<int>& node_to_row,
                                    const TransferSpec& spec, std::string_view who);

}  // namespace symref::mna
