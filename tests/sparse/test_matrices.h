// Test matrices built on the production assembly path.
//
// Every matrix the sparse tests factor is a PatternedMatrix, like every
// matrix the library factors. A complex entry a + ib is the stamp {a, b}:
// PatternedMatrix assembles g + s*c, so at s = i the entry reads back
// exactly a + ib (real part a + 0*b, imaginary part 1*b).
#pragma once

#include <complex>
#include <utility>
#include <vector>

#include "sparse/matrix.h"
#include "support/random.h"

namespace symref::sparse::test {

/// The evaluation point at which a stamp {a, b} assembles to a + ib.
inline constexpr std::complex<double> kI{0.0, 1.0};

/// The stamp that assembles to `value` at (row, col) at s = i.
inline PatternStamp entry(int row, int col, std::complex<double> value) {
  return {row, col, value.real(), value.imag()};
}

/// The n x n matrix of `entries` (duplicates summed), assembled at s = i.
inline CompressedMatrix at_i(int n, std::vector<PatternStamp> entries) {
  PatternedMatrix matrix(n, std::move(entries));
  return matrix.assemble(kI);
}

/// Entries of a sparse circuit-like matrix: a strong diagonal, and each
/// off-diagonal position present with probability `density`. Deterministic
/// in (rng state, n) alone.
inline std::vector<PatternStamp> random_entries(support::Rng& rng, int n, double density) {
  std::vector<PatternStamp> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back(entry(i, i, {rng.uniform(1.0, 2.0) * rng.sign(), rng.uniform(-0.5, 0.5)}));
  }
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r != c && rng.next_double() < density) {
        entries.push_back(entry(r, c, {rng.uniform(-1, 1), rng.uniform(-1, 1)}));
      }
    }
  }
  return entries;
}

/// random_entries() assembled at s = i.
inline CompressedMatrix random_matrix(support::Rng& rng, int n, double density) {
  return at_i(n, random_entries(rng, n, density));
}

}  // namespace symref::sparse::test
