// Triplet (COO) assembly matrix for MNA stamping.
//
// Element stamps accumulate duplicate (row, col) contributions; compress()
// merges them into a deterministic column-sorted row structure consumed by
// the LU factorizations.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace symref::sparse {

struct Triplet {
  int row = 0;
  int col = 0;
  std::complex<double> value;
};

/// Row-compressed view produced by TripletMatrix::compress().
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

/// On-the-fly lane assembly for BatchedReplay: the base value arrays plus
/// the per-lane frequency points, letting the replay's scatter compute
/// value(k, l) = g_scale * conductance[k] + s[l] * (f_scale * capacitance[k])
/// as it streams — PatternedMatrix::assemble()'s expression at s[l],
/// without ever materializing the nnz-by-width value block.
struct LaneAssembly {
  const double* conductance = nullptr;  // per CSR position
  const double* capacitance = nullptr;  // per CSR position
  const std::complex<double>* s = nullptr;  // per lane
  double f_scale = 1.0;
  double g_scale = 1.0;
};

/// Pattern-cached assembly: the structural nonzero layout is computed once
/// from a stamp list (duplicates merged, rows sorted), and every assemble()
/// call rewrites only the value array of the cached CompressedMatrix — no
/// triplet allocation, sorting or compression on the per-sample path. The
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

  /// View for BatchedReplay's fused-assembly replay: lane l of CSR position
  /// k assembles to the same bits as assemble(s[l], f_scale, g_scale). The
  /// view borrows this matrix's arrays — keep it alive while in use.
  [[nodiscard]] LaneAssembly lane_assembly(const std::complex<double>* s, double f_scale = 1.0,
                                           double g_scale = 1.0) const noexcept {
    return {conductance_.data(), capacitance_.data(), s, f_scale, g_scale};
  }

 private:
  CompressedMatrix matrix_;
  std::vector<double> conductance_;  // aligned with matrix_.values
  std::vector<double> capacitance_;
};

class TripletMatrix {
 public:
  explicit TripletMatrix(int dim) : dim_(dim) {}

  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t entries() const noexcept { return triplets_.size(); }
  [[nodiscard]] const std::vector<Triplet>& triplets() const noexcept { return triplets_; }

  /// Accumulate value at (row, col); indices must be within [0, dim).
  void add(int row, int col, std::complex<double> value);

  void clear() noexcept { triplets_.clear(); }

  /// Merge duplicates and sort columns within each row.
  [[nodiscard]] CompressedMatrix compress() const;

 private:
  int dim_;
  std::vector<Triplet> triplets_;
};

}  // namespace symref::sparse
