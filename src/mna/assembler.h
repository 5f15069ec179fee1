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
// entries; MnaAssembler merges the table into a fixed structural layout once
// and assemble() rewrites only the value array per frequency point — the
// pattern stability that lets the AC simulator sweep via SparseLu::refactor().
#pragma once

#include <complex>
#include <map>
#include <optional>
#include <string>
#include <vector>

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

class MnaAssembler {
 public:
  explicit MnaAssembler(const netlist::Circuit& circuit);

  /// System dimension: active nodes + auxiliary branch currents.
  [[nodiscard]] int dim() const noexcept { return table_.dim; }

  /// Row/column of a node's voltage unknown; nullopt for ground or a node no
  /// element touches. The name overload resolves through a prebuilt
  /// name -> row map (no circuit scan).
  [[nodiscard]] std::optional<int> node_index(int node) const;
  [[nodiscard]] std::optional<int> node_index(std::string_view name) const;

  /// Row/column of an element's auxiliary branch current, when it has one.
  /// O(log #branches) through a prebuilt name -> row map.
  [[nodiscard]] std::optional<int> branch_index(std::string_view element_name) const;

  /// Assemble Y_MNA(s) as fresh triplets (compatibility path; throws
  /// std::invalid_argument when a CCCS/CCVS names a branchless element).
  [[nodiscard]] sparse::TripletMatrix matrix(std::complex<double> s) const;

  /// Pattern-cached assembly: rewrites only the value array of the cached
  /// CompressedMatrix (same error behavior as matrix()). The returned
  /// reference stays valid and pattern-stable across calls.
  const sparse::CompressedMatrix& assemble(std::complex<double> s);

  /// The pattern-cached matrix assemble() writes into: the base values and
  /// structure the multi-point replay driver (sparse::replay_points) reads.
  /// Empty when the table carries a stamp error.
  [[nodiscard]] const sparse::PatternedMatrix& assembly() const noexcept { return assembly_; }

  /// Excitation vector from the independent sources (AC magnitudes).
  [[nodiscard]] std::vector<std::complex<double>> excitation() const;

 private:
  void require_stamps() const;

  const netlist::Circuit& circuit_;
  /// The circuit's stamp table and the pattern-cached matrix it assembles
  /// into (left empty when the table carries a stamp error: construction
  /// succeeds, matrix()/assemble() throw).
  StampTable table_;
  sparse::PatternedMatrix assembly_;
  std::map<std::string, int, std::less<>> node_rows_by_name_;
};

}  // namespace symref::mna
