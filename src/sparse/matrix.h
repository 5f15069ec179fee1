// Pattern-cached assembly of stamp lists into compressed rows.
//
// Every sparse matrix the library factors is a PatternedMatrix: element
// stamps merge once into a deterministic column-sorted row structure, and
// each evaluation point rewrites only the values the LU factorizations
// consume.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace symref::sparse {

/// Row-compressed matrix, as PatternedMatrix assembles it.
struct CompressedMatrix {
  int dim = 0;
  /// row_start[i]..row_start[i+1] index into cols/values; cols sorted per row.
  std::vector<int> row_start;
  std::vector<int> cols;
  std::vector<std::complex<double>> values;

  [[nodiscard]] std::size_t nonzeros() const noexcept { return values.size(); }

  /// Entry (r, c); zero when not stored. O(log nnz(row)).
  [[nodiscard]] std::complex<double> at(int r, int c) const noexcept;

  /// Dense y = A*x (used by iterative-refinement and tests).
  void multiply(const std::vector<std::complex<double>>& x,
                std::vector<std::complex<double>>& y) const;
};

/// One structural stamp position of an admittance-like matrix whose values
/// are an affine function of the evaluation point:
/// value(s, f, g) = g * conductance + s * (f * capacitance).
/// (For full MNA assembly the same shape reads base + s * reactive with
/// f = g = 1.)
struct PatternStamp {
  int row = 0;
  int col = 0;
  double conductance = 0.0;
  double capacitance = 0.0;
};

/// Pattern-cached assembly: the structural nonzero layout is computed once
/// from a stamp list (duplicates merged, rows sorted), and every assemble()
/// call rewrites only the value array of the cached CompressedMatrix — no
/// allocation, sorting or merging on the per-sample path. The
/// fixed layout is what keeps SparseLu::refactor() applicable across an
/// entire frequency sweep or interpolation run.
class PatternedMatrix {
 public:
  PatternedMatrix() = default;
  PatternedMatrix(int dim, std::vector<PatternStamp> stamps);

  /// Rewrite the cached values for one (s, f, g) evaluation point and return
  /// the assembled matrix (pattern stable across calls).
  const CompressedMatrix& assemble(std::complex<double> s, double f_scale = 1.0,
                                   double g_scale = 1.0);

  /// Replace the base conductance/capacitance arrays from a NEW stamp list
  /// with the SAME merged structure — the per-sample path of parameter
  /// sweeps, where element values change but the topology does not. Returns
  /// true when every merged (row, col) position matched the cached layout
  /// (values rewritten in place, no allocation of a new pattern); false
  /// leaves the matrix untouched and the caller falls back to rebuilding
  /// (PatternedMatrix(dim, stamps)), after which a plan replay will refuse
  /// and trigger a fresh factorization.
  bool rebind(int dim, std::vector<PatternStamp> stamps);

  [[nodiscard]] const CompressedMatrix& matrix() const noexcept { return matrix_; }

  /// The merged G and C parts, aligned with matrix().values: assemble()
  /// writes g_scale * conductance()[k] + s * (f_scale * capacitance()[k]),
  /// the expression the batched replay kernel fuses into its scatter.
  [[nodiscard]] const std::vector<double>& conductance() const noexcept { return conductance_; }
  [[nodiscard]] const std::vector<double>& capacitance() const noexcept { return capacitance_; }

 private:
  CompressedMatrix matrix_;
  std::vector<double> conductance_;  // aligned with matrix_.values
  std::vector<double> capacitance_;
};

}  // namespace symref::sparse
