// Small statistics helpers for the scale-factor heuristics (§3.2: the first
// interpolation uses the inverse of the mean capacitor / conductance values).
#pragma once

#include <span>

namespace symref::numeric {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values) noexcept;

/// Geometric mean of |values|, ignoring zeros; 0 if no nonzero entry.
/// Element values span decades, so this is the robust "typical magnitude".
double geometric_mean(std::span<const double> values) noexcept;

}  // namespace symref::numeric
