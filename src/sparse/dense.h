// Dense complex LU with partial pivoting.
//
// Serves as the validation oracle for the sparse Markowitz factorization and
// as the solver for small systems where sparse bookkeeping is overhead.
#pragma once

#include <complex>
#include <vector>

#include "numeric/scaled.h"
#include "sparse/matrix.h"

namespace symref::sparse {

class DenseLu {
 public:
  /// Factor a dense row-major matrix (dim x dim). Returns false when a pivot
  /// column is exactly zero (structurally or numerically singular).
  bool factor(std::vector<std::complex<double>> matrix, int dim);

  /// Factor an assembled sparse matrix (scattered into dense storage).
  bool factor(const CompressedMatrix& matrix);

  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Solve A x = b; b is overwritten with x. Requires ok().
  void solve(std::vector<std::complex<double>>& rhs) const;

  /// det(A) as an extended-range value (pivot product * permutation sign).
  [[nodiscard]] numeric::ScaledComplex determinant() const;

 private:
  int dim_ = 0;
  bool ok_ = false;
  int permutation_sign_ = 1;
  std::vector<std::complex<double>> lu_;  // combined L (unit diag) and U
  std::vector<int> row_perm_;             // pivot row order
};

}  // namespace symref::sparse
