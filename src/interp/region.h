// Valid-region extraction (paper §3.2, eq. (12)).
//
// After one interpolation, a normalized coefficient is trustworthy only when
// it stands above the round-off floor of the transform:
//
//   |p_i|  >=  10^(-noise_decades + sigma) * max_j |p_j|
//
// with noise_decades ~= 13 for 16-digit arithmetic (paper §2.2) and sigma
// the number of significant digits demanded of each coefficient. The valid
// region is the maximal contiguous index span around the peak that clears
// the floor — contiguity matters because the adaptive scaling update (eqs.
// (13)-(15)) works with the region's endpoints.
#pragma once

#include <span>
#include <string>

#include "numeric/scaled.h"

namespace symref::interp {

struct RegionOptions {
  /// Significant decimal digits demanded of accepted coefficients.
  int sigma = 6;
  /// Decimal digits of working precision (16-digit arithmetic keeps ~13
  /// clean digits through the DFT; see paper §2.2).
  double noise_decades = 13.0;
  /// Absolute noise already present in the analyzed values beyond the
  /// transform's own round-off — e.g. the subtraction error of known
  /// coefficients in a deflated interpolation (eq. (17)). The acceptance
  /// floor becomes max(peak * 10^(sigma - noise_decades),
  ///                   external_noise * 10^sigma).
  numeric::ScaledDouble external_noise{};
};

struct ValidRegion {
  int begin = 0;       // first valid index
  int end = -1;        // last valid index, inclusive; empty() when end < begin
  int max_index = -1;  // index of the peak |p_i|
  numeric::ScaledDouble max_value;    // |p_max|
  numeric::ScaledDouble error_floor;  // acceptance threshold

  [[nodiscard]] bool empty() const noexcept { return end < begin; }
  [[nodiscard]] int width() const noexcept { return empty() ? 0 : end - begin + 1; }
  [[nodiscard]] bool contains(int index) const noexcept {
    return index >= begin && index <= end;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Find the contiguous valid region around the peak magnitude.
ValidRegion find_valid_region(std::span<const numeric::ScaledDouble> magnitudes,
                              const RegionOptions& options = {});

}  // namespace symref::interp
