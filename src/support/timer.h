// Wall-clock stopwatch used by the refgen engine to report per-iteration
// timings (the paper's §3.3 CPU-time experiment).
#pragma once

#include <chrono>
#include <optional>

namespace symref::support {

/// The steady-clock time `milliseconds` from now, or nullopt unless the
/// budget is positive and the deadline lies within the clock's range:
/// steady_clock::duration is 64-bit nanoseconds, so converting a NaN, an
/// infinity or a budget beyond about 9.2e12 ms overflows. Every deadline the
/// program arms goes through here.
[[nodiscard]] inline std::optional<std::chrono::steady_clock::time_point> deadline_after_ms(
    double milliseconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double, Clock::period> budget =
      std::chrono::duration<double, std::milli>(milliseconds);
  const double room = static_cast<double>((Clock::time_point::max() - now).count());
  if (!(budget.count() > 0.0 && budget.count() < room)) return std::nullopt;
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or last reset().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace symref::support
