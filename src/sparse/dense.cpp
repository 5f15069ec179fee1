#include "sparse/dense.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace symref::sparse {

bool DenseLu::factor(std::vector<std::complex<double>> matrix, int dim) {
  assert(static_cast<int>(matrix.size()) == dim * dim);
  dim_ = dim;
  lu_ = std::move(matrix);
  row_perm_.resize(static_cast<std::size_t>(dim));
  for (int i = 0; i < dim; ++i) row_perm_[static_cast<std::size_t>(i)] = i;
  permutation_sign_ = 1;
  ok_ = true;

  auto entry = [&](int r, int c) -> std::complex<double>& {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(dim_) +
               static_cast<std::size_t>(c)];
  };

  for (int k = 0; k < dim; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    int pivot_row = k;
    double best = std::abs(entry(k, k));
    for (int r = k + 1; r < dim; ++r) {
      const double mag = std::abs(entry(r, k));
      if (mag > best) {
        best = mag;
        pivot_row = r;
      }
    }
    if (best == 0.0) {
      ok_ = false;
      return false;
    }
    if (pivot_row != k) {
      for (int c = 0; c < dim; ++c) std::swap(entry(k, c), entry(pivot_row, c));
      std::swap(row_perm_[static_cast<std::size_t>(k)],
                row_perm_[static_cast<std::size_t>(pivot_row)]);
      permutation_sign_ = -permutation_sign_;
    }
    const std::complex<double> pivot = entry(k, k);
    for (int r = k + 1; r < dim; ++r) {
      const std::complex<double> factor = entry(r, k) / pivot;
      entry(r, k) = factor;
      if (factor == std::complex<double>()) continue;
      for (int c = k + 1; c < dim; ++c) entry(r, c) -= factor * entry(k, c);
    }
  }
  return true;
}

bool DenseLu::factor(const CompressedMatrix& matrix) {
  const std::size_t dim = static_cast<std::size_t>(matrix.dim);
  std::vector<std::complex<double>> dense(dim * dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (int k = matrix.row_start[r]; k < matrix.row_start[r + 1]; ++k) {
      const std::size_t at = static_cast<std::size_t>(k);
      dense[r * dim + static_cast<std::size_t>(matrix.cols[at])] = matrix.values[at];
    }
  }
  return factor(std::move(dense), matrix.dim);
}

void DenseLu::solve(std::vector<std::complex<double>>& rhs) const {
  assert(ok_);
  assert(static_cast<int>(rhs.size()) == dim_);
  // Apply row permutation: y = P b.
  std::vector<std::complex<double>> y(static_cast<std::size_t>(dim_));
  for (int i = 0; i < dim_; ++i) {
    y[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(row_perm_[static_cast<std::size_t>(i)])];
  }
  const auto entry = [&](int r, int c) {
    return lu_[static_cast<std::size_t>(r) * static_cast<std::size_t>(dim_) +
               static_cast<std::size_t>(c)];
  };
  // Forward substitution with unit lower factor.
  for (int r = 1; r < dim_; ++r) {
    std::complex<double> acc = y[static_cast<std::size_t>(r)];
    for (int c = 0; c < r; ++c) acc -= entry(r, c) * y[static_cast<std::size_t>(c)];
    y[static_cast<std::size_t>(r)] = acc;
  }
  // Back substitution with U.
  for (int r = dim_ - 1; r >= 0; --r) {
    std::complex<double> acc = y[static_cast<std::size_t>(r)];
    for (int c = r + 1; c < dim_; ++c) acc -= entry(r, c) * y[static_cast<std::size_t>(c)];
    y[static_cast<std::size_t>(r)] = acc / entry(r, r);
  }
  rhs = std::move(y);
}

numeric::ScaledComplex DenseLu::determinant() const {
  if (!ok_) return numeric::ScaledComplex();
  numeric::ScaledComplex det(std::complex<double>(permutation_sign_, 0.0));
  for (int k = 0; k < dim_; ++k) {
    det *= numeric::ScaledComplex(
        lu_[static_cast<std::size_t>(k) * static_cast<std::size_t>(dim_) +
            static_cast<std::size_t>(k)]);
  }
  return det;
}

}  // namespace symref::sparse
