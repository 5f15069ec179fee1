#include "sparse/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace symref::sparse {

namespace {

/// NaN/Inf stamps are rejected at assembly/rebind time: a non-finite value
/// would otherwise ride silently through the LU replay (every pivot check
/// compares magnitudes, and NaN comparisons are false) and poison the
/// result. Throwing std::invalid_argument surfaces as a typed Status at the
/// facade instead.
void require_finite_stamp(const PatternStamp& stamp) {
  if (std::isfinite(stamp.conductance) && std::isfinite(stamp.capacitance)) return;
  throw std::invalid_argument("PatternedMatrix: non-finite stamp value at (" +
                              std::to_string(stamp.row) + ", " + std::to_string(stamp.col) +
                              ")");
}

}  // namespace

std::complex<double> CompressedMatrix::at(int r, int c) const noexcept {
  if (r < 0 || r >= dim) return {};
  const int begin = row_start[static_cast<std::size_t>(r)];
  const int end = row_start[static_cast<std::size_t>(r) + 1];
  const auto first = cols.begin() + begin;
  const auto last = cols.begin() + end;
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return {};
  return values[static_cast<std::size_t>(it - cols.begin())];
}

void CompressedMatrix::multiply(const std::vector<std::complex<double>>& x,
                                std::vector<std::complex<double>>& y) const {
  assert(static_cast<int>(x.size()) == dim);
  y.assign(static_cast<std::size_t>(dim), {});
  for (int r = 0; r < dim; ++r) {
    std::complex<double> acc;
    for (int k = row_start[static_cast<std::size_t>(r)];
         k < row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(cols[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

PatternedMatrix::PatternedMatrix(int dim, std::vector<PatternStamp> stamps) {
  std::sort(stamps.begin(), stamps.end(), [](const PatternStamp& a, const PatternStamp& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  matrix_.dim = dim;
  matrix_.row_start.assign(static_cast<std::size_t>(dim) + 1, 0);
  std::size_t i = 0;
  while (i < stamps.size()) {
    PatternStamp merged = stamps[i];
    std::size_t j = i + 1;
    while (j < stamps.size() && stamps[j].row == merged.row && stamps[j].col == merged.col) {
      merged.conductance += stamps[j].conductance;
      merged.capacitance += stamps[j].capacitance;
      ++j;
    }
    require_finite_stamp(merged);
    matrix_.cols.push_back(merged.col);
    conductance_.push_back(merged.conductance);
    capacitance_.push_back(merged.capacitance);
    ++matrix_.row_start[static_cast<std::size_t>(merged.row) + 1];
    i = j;
  }
  for (int r = 0; r < dim; ++r) {
    matrix_.row_start[static_cast<std::size_t>(r) + 1] +=
        matrix_.row_start[static_cast<std::size_t>(r)];
  }
  matrix_.values.assign(matrix_.cols.size(), {});
}

bool PatternedMatrix::rebind(int dim, std::vector<PatternStamp> stamps) {
  if (dim != matrix_.dim) return false;
  std::sort(stamps.begin(), stamps.end(), [](const PatternStamp& a, const PatternStamp& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // First pass: verify the merged positions reproduce the cached layout
  // exactly, without touching the value arrays (rebind must be all-or-
  // nothing so a failed attempt leaves a usable matrix behind). Stamp
  // values are validated here too, BEFORE any mutation, for the same
  // all-or-nothing guarantee.
  for (const PatternStamp& stamp : stamps) require_finite_stamp(stamp);
  std::size_t k = 0;
  std::size_t i = 0;
  while (i < stamps.size()) {
    std::size_t j = i + 1;
    while (j < stamps.size() && stamps[j].row == stamps[i].row &&
           stamps[j].col == stamps[i].col) {
      ++j;
    }
    if (k >= matrix_.cols.size() || matrix_.cols[k] != stamps[i].col ||
        k < static_cast<std::size_t>(matrix_.row_start[static_cast<std::size_t>(stamps[i].row)]) ||
        k >= static_cast<std::size_t>(
                 matrix_.row_start[static_cast<std::size_t>(stamps[i].row) + 1])) {
      return false;
    }
    ++k;
    i = j;
  }
  if (k != matrix_.cols.size()) return false;

  // Second pass: rewrite the base values in place.
  k = 0;
  i = 0;
  while (i < stamps.size()) {
    PatternStamp merged = stamps[i];
    std::size_t j = i + 1;
    while (j < stamps.size() && stamps[j].row == merged.row && stamps[j].col == merged.col) {
      merged.conductance += stamps[j].conductance;
      merged.capacitance += stamps[j].capacitance;
      ++j;
    }
    conductance_[k] = merged.conductance;
    capacitance_[k] = merged.capacitance;
    ++k;
    i = j;
  }
  return true;
}

const CompressedMatrix& PatternedMatrix::assemble(std::complex<double> s, double f_scale,
                                                  double g_scale) {
  for (std::size_t k = 0; k < matrix_.values.size(); ++k) {
    matrix_.values[k] = g_scale * conductance_[k] + s * (f_scale * capacitance_[k]);
  }
  return matrix_;
}

}  // namespace symref::sparse
