#include "mna/ac.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "mna/assembler.h"
#include "mna/errors.h"
#include "support/thread_pool.h"

namespace symref::mna {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

constexpr const char* kSingular = "AcSimulator: singular MNA system";

/// The output voltage between rows pos and neg (-1 = ground) at one solved
/// point; throws SingularSystemError when the point was singular.
std::complex<double> output_voltage(const sparse::ReplayedPoint& point, int pos, int neg) {
  if (!point.ok()) throw SingularSystemError(kSingular);
  return point.x(pos) - point.x(neg);
}

}  // namespace

double magnitude_db(std::complex<double> value) noexcept {
  const double magnitude = std::abs(value);
  if (magnitude <= 0.0) return -400.0;
  return std::max(-400.0, 20.0 * std::log10(magnitude));
}

double phase_deg(std::complex<double> value) noexcept {
  return std::arg(value) * 180.0 / M_PI;
}

std::vector<BodePoint> bode_points(std::span<const double> frequencies_hz,
                                   std::span<const std::complex<double>> values) {
  std::vector<BodePoint> points(frequencies_hz.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    BodePoint& p = points[i];
    p.frequency_hz = frequencies_hz[i];
    p.value = values[i];
    p.magnitude_db = magnitude_db(p.value);
    double phase = phase_deg(p.value);
    if (i > 0) {
      const double previous_phase = points[i - 1].phase_deg;
      while (phase - previous_phase > 180.0) phase -= 360.0;
      while (phase - previous_phase < -180.0) phase += 360.0;
    }
    p.phase_deg = phase;
  }
  return points;
}

AcSimulator::AcSimulator(const netlist::Circuit& circuit) : circuit_(circuit) {}

AcSimulator::SpecCache& AcSimulator::prepare(const TransferSpec& spec) const {
  if (cache_ && cache_->spec == spec) return *cache_;
  cache_.reset();

  // The circuit's stamps plus the drive. Existing independent V sources stay
  // as 0 V constraints and existing I sources are simply not excited: the
  // right-hand side is the drive alone, i.e. standard superposition with
  // only the drive active.
  StampTable table = build_stamp_table(circuit_);
  const SpecRows rows = resolve_spec(circuit_, table.node_to_row, spec, "AcSimulator");
  if (!table.error.empty()) throw std::invalid_argument(table.error);
  auto cache = std::make_unique<SpecCache>();
  cache->spec = spec;
  int dim = table.dim;
  if (spec.kind == TransferSpec::Kind::VoltageGain) {
    // An ideal 1 V source across the input pair on a branch row after every
    // other, stamped as build_stamp_table stamps a voltage source.
    const int branch = dim++;
    stamp_entry(table.stamps, rows.in_pos, branch, 1.0);
    stamp_entry(table.stamps, rows.in_neg, branch, -1.0);
    stamp_entry(table.stamps, branch, rows.in_pos, 1.0);
    stamp_entry(table.stamps, branch, rows.in_neg, -1.0);
    cache->injections = {{branch, 1.0}};
  } else {
    // Transimpedance convention: 1 A injected INTO in+ and drawn from in-
    // (matches CofactorEvaluator, so signs agree across both paths).
    cache->injections = {{rows.in_pos, 1.0}, {rows.in_neg, -1.0}};
  }
  cache->assembly = sparse::PatternedMatrix(dim, std::move(table.stamps));
  cache->out_pos_row = rows.out_pos;
  cache->out_neg_row = rows.out_neg;
  cache_ = std::move(cache);
  return *cache_;
}

std::complex<double> AcSimulator::transfer_s(const TransferSpec& spec,
                                             std::complex<double> s) const {
  SpecCache& cache = prepare(spec);
  // Pattern-cached assembly, then the plan replay; a fresh factorization
  // (kept as the new plan) only when there is no plan yet or the replay is
  // refused at this point.
  if (!cache.lu.replay_or_factor(cache.assembly.assemble(s), nullptr)) {
    throw SingularSystemError(kSingular);
  }
  std::vector<std::complex<double>> x;
  sparse::solve_injected(cache.lu, cache.injections, x);
  return output_voltage(sparse::ReplayedPoint(cache.lu, x), cache.out_pos_row,
                        cache.out_neg_row);
}

std::complex<double> AcSimulator::transfer(const TransferSpec& spec, double frequency_hz) const {
  return transfer_s(spec, std::complex<double>(0.0, kTwoPi * frequency_hz));
}

std::vector<double> log_frequency_grid(double f_start_hz, double f_stop_hz,
                                       int points_per_decade) {
  if (f_start_hz <= 0.0 || f_stop_hz <= f_start_hz || points_per_decade < 1) {
    throw std::invalid_argument("log_frequency_grid: bad range");
  }
  const double decades = std::log10(f_stop_hz / f_start_hz);
  const double steps = std::ceil(decades * points_per_decade);  // may overflow int
  if (!(steps < kMaxGridPoints)) {
    throw std::invalid_argument("log_frequency_grid: more than 2^20 points");
  }
  const int count = std::max(2, static_cast<int>(steps) + 1);
  std::vector<double> grid(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    grid[static_cast<std::size_t>(i)] =
        f_start_hz * std::pow(10.0, decades * i / (count - 1));
  }
  return grid;
}

std::vector<BodePoint> AcSimulator::bode(const TransferSpec& spec, double f_start_hz,
                                         double f_stop_hz, int points_per_decade,
                                         int threads, support::CancellationToken cancel) const {
  const std::vector<double> grid = log_frequency_grid(f_start_hz, f_stop_hz, points_per_decade);
  SpecCache& cache = prepare(spec);
  if (cancel.cancelled()) throw support::CancelledError();

  // The first point runs on the caller with the cache's own state, creating
  // (or refreshing) the factorization plan every other point replays.
  std::vector<std::complex<double>> s_points(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) s_points[i] = {0.0, kTwoPi * grid[i]};
  std::vector<std::complex<double>> values(grid.size());
  values[0] = transfer_s(spec, s_points[0]);

  // <= 0 picks the hardware thread count (same convention as
  // AdaptiveOptions::threads and ThreadPool); never more lanes than
  // remaining points.
  const int requested = threads <= 0 ? support::ThreadPool::hardware_threads() : threads;
  const int lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(requested), grid.size() - 1));
  std::optional<support::ThreadPool> pool;
  if (lanes > 1) pool.emplace(lanes);
  sparse::replay_points(cache.assembly, cache.lu, std::span(s_points).subspan(1),
                        1.0, 1.0, cache.injections, nullptr, pool ? &*pool : nullptr, cancel,
                        [&](std::size_t i, const sparse::ReplayedPoint& point) {
                          values[i + 1] =
                              output_voltage(point, cache.out_pos_row, cache.out_neg_row);
                        });

  // Ordered reduction on the caller, whichever lane produced each value.
  return bode_points(grid, values);
}

}  // namespace symref::mna
