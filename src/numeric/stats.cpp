#include "numeric/stats.h"

#include <cmath>

namespace symref::numeric {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geometric_mean(std::span<const double> values) noexcept {
  double log_sum = 0.0;
  std::size_t count = 0;
  for (const double v : values) {
    if (v == 0.0) continue;
    log_sum += std::log(std::fabs(v));
    ++count;
  }
  if (count == 0) return 0.0;
  return std::exp(log_sum / static_cast<double>(count));
}

}  // namespace symref::numeric
