#include "interp/region.h"

#include <cmath>
#include <sstream>

namespace symref::interp {

std::string ValidRegion::to_string() const {
  std::ostringstream os;
  if (empty()) {
    os << "[empty]";
  } else {
    os << "[p" << begin << "..p" << end << "] peak p" << max_index << " = "
       << max_value.to_string(4) << ", floor = " << error_floor.to_string(4);
  }
  return os.str();
}

ValidRegion find_valid_region(std::span<const numeric::ScaledDouble> magnitudes,
                              const RegionOptions& options) {
  ValidRegion region;
  if (magnitudes.empty()) return region;

  for (std::size_t i = 0; i < magnitudes.size(); ++i) {
    if (region.max_index < 0 || magnitudes[i] > region.max_value) {
      region.max_index = static_cast<int>(i);
      region.max_value = magnitudes[i];
    }
  }
  if (region.max_value.is_zero()) {
    region.begin = 0;
    region.end = -1;
    return region;
  }
  const double floor_exponent = -kNoiseDecades + static_cast<double>(options.sigma);
  region.error_floor =
      region.max_value * numeric::ScaledDouble(std::pow(10.0, floor_exponent));
  if (!options.external_noise.is_zero()) {
    const numeric::ScaledDouble sigma_boost(
        std::pow(10.0, static_cast<double>(options.sigma)));
    const numeric::ScaledDouble noise_floor = options.external_noise.abs() * sigma_boost;
    if (noise_floor > region.error_floor) region.error_floor = noise_floor;
  }

  if (region.max_value < region.error_floor) {
    // Everything is buried below the (external) noise: empty region.
    region.begin = 0;
    region.end = -1;
    return region;
  }
  int begin = region.max_index;
  while (begin > 0 && magnitudes[static_cast<std::size_t>(begin - 1)] >= region.error_floor) {
    --begin;
  }
  int end = region.max_index;
  while (end + 1 < static_cast<int>(magnitudes.size()) &&
         magnitudes[static_cast<std::size_t>(end + 1)] >= region.error_floor) {
    ++end;
  }
  region.begin = begin;
  region.end = end;
  return region;
}

}  // namespace symref::interp
