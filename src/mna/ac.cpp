#include "mna/ac.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mna/errors.h"
#include "sparse/batched.h"
#include "support/thread_pool.h"

namespace symref::mna {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool same_spec(const TransferSpec& a, const TransferSpec& b) {
  return a.kind == b.kind && a.in_pos == b.in_pos && a.in_neg == b.in_neg &&
         a.out_pos == b.out_pos && a.out_neg == b.out_neg;
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

AcSimulator::AcSimulator(const netlist::Circuit& circuit) : circuit_(circuit) {}

AcSimulator::SpecCache& AcSimulator::prepare(const TransferSpec& spec) const {
  if (cache_ && same_spec(cache_->spec, spec)) return *cache_;
  cache_.reset();

  // Work on a copy with the drive attached. Existing independent V sources
  // stay as 0 V constraints (their magnitudes live only in the excitation,
  // which we rebuild per point), existing I sources are simply not excited —
  // i.e. standard superposition with only the drive active.
  auto cache = std::make_unique<SpecCache>();
  cache->spec = spec;
  cache->work = circuit_;
  const bool voltage_drive = spec.kind == TransferSpec::Kind::VoltageGain;
  if (voltage_drive) {
    cache->work.add_vsource("__drive", spec.in_pos, spec.in_neg, 1.0);
  } else {
    cache->work.add_isource("__drive", spec.in_pos, spec.in_neg, 1.0);
  }
  cache->assembler = std::make_unique<MnaAssembler>(cache->work);
  if (voltage_drive) {
    cache->drive_branch = *cache->assembler->branch_index("__drive");
  } else {
    // Transimpedance convention: 1 A injected INTO in+ and drawn from in-
    // (matches CofactorEvaluator, so signs agree across both paths).
    cache->in_pos_row = cache->assembler->node_index(spec.in_pos).value_or(-1);
    cache->in_neg_row = cache->assembler->node_index(spec.in_neg).value_or(-1);
  }
  // Resolve the output pair once; a row of -1 reads as 0 V (ground or a node
  // no element touches).
  auto out_row = [&](const std::string& name) -> int {
    if (cache->work.find_node(name) == std::nullopt) {
      throw SpecError("AcSimulator: unknown node '" + name + "'");
    }
    return cache->assembler->node_index(name).value_or(-1);
  };
  cache->out_pos_row = out_row(spec.out_pos);
  cache->out_neg_row = out_row(spec.out_neg);
  cache_ = std::move(cache);
  return *cache_;
}

std::complex<double> AcSimulator::solve_point(const SpecCache& cache, MnaAssembler& assembler,
                                              sparse::SparseLu& lu,
                                              std::vector<std::complex<double>>& rhs,
                                              bool persist_plan, std::complex<double> s) const {
  rhs.assign(static_cast<std::size_t>(assembler.dim()), std::complex<double>());
  if (cache.drive_branch >= 0) {
    rhs[static_cast<std::size_t>(cache.drive_branch)] = 1.0;
  } else {
    if (cache.in_pos_row >= 0) rhs[static_cast<std::size_t>(cache.in_pos_row)] += 1.0;
    if (cache.in_neg_row >= 0) rhs[static_cast<std::size_t>(cache.in_neg_row)] -= 1.0;
  }

  // Pattern-cached assembly, then the plan replay; a fresh Markowitz
  // factorization only when there is no plan yet or the reused pivots
  // degraded at this point.
  const sparse::CompressedMatrix& matrix = assembler.assemble(s);
  const sparse::SparseLu* solver = &lu;
  sparse::SparseLu throwaway;
  if (!lu.refactor(matrix)) {
    sparse::SparseLu& fresh = persist_plan ? lu : throwaway;
    if (!fresh.factor(matrix)) {
      throw SingularSystemError("AcSimulator: singular MNA system");
    }
    solver = &fresh;
  }
  solver->solve(rhs);

  auto voltage = [&](int row) -> std::complex<double> {
    return row < 0 ? std::complex<double>(0.0, 0.0) : rhs[static_cast<std::size_t>(row)];
  };
  return voltage(cache.out_pos_row) - voltage(cache.out_neg_row);
}

std::complex<double> AcSimulator::transfer_s(const TransferSpec& spec,
                                             std::complex<double> s) const {
  SpecCache& cache = prepare(spec);
  std::vector<std::complex<double>> rhs;
  return solve_point(cache, *cache.assembler, cache.lu, rhs, /*persist_plan=*/true, s);
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
  const int count = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
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
  auto s_of = [](double f) { return std::complex<double>(0.0, kTwoPi * f); };
  if (cancel.cancelled()) throw support::CancelledError();

  // The first point runs on the caller with the cache's own state, creating
  // (or refreshing) the factorization plan every other point replays.
  std::vector<std::complex<double>> values(grid.size());
  std::vector<std::complex<double>> rhs;
  values[0] = solve_point(cache, *cache.assembler, cache.lu, rhs, /*persist_plan=*/true,
                          s_of(grid[0]));

  if (grid.size() > 1) {
    // Per-lane clones: pattern-cached assembler values + SparseLu numeric
    // workspace, sharing the immutable symbolic plan. Non-persisting
    // fallback keeps every point a pure function of (plan, frequency), so
    // the sweep is bit-identical at any thread count — the single-lane path
    // below is the same code with one clone.
    struct Lane {
      MnaAssembler assembler;
      sparse::SparseLu lu;
      std::vector<std::complex<double>> rhs;
      // Batched-path state (unused on the scalar path): the SoA replay
      // bound to the cache's plan, its solve buffer and the group's s values.
      sparse::BatchedReplay replay;
      std::vector<std::complex<double>> soa_rhs;
      std::vector<std::complex<double>> s_values;
    };
    // <= 0 picks the hardware thread count (same convention as
    // AdaptiveOptions::threads and ThreadPool); never more lanes than
    // remaining points.
    const int requested = threads <= 0 ? support::ThreadPool::hardware_threads() : threads;
    const int lane_count =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(requested),
                                               grid.size() - 1));
    std::vector<Lane> lanes;
    lanes.reserve(static_cast<std::size_t>(lane_count));
    for (int i = 0; i < lane_count; ++i) {
      lanes.push_back(Lane{*cache.assembler, cache.lu, {}, {}, {}, {}});
    }
    auto body = [&](std::size_t begin, std::size_t end, int lane) {
      Lane& state = lanes[static_cast<std::size_t>(lane)];
      for (std::size_t i = begin; i < end; ++i) {
        // Cooperative checkpoint: the pool rethrows the first lane's
        // CancelledError and abandons the remaining chunks.
        if (cancel.cancelled()) throw support::CancelledError();
        values[i + 1] = solve_point(cache, state.assembler, state.lu, state.rhs,
                                    /*persist_plan=*/false, s_of(grid[i + 1]));
      }
    };

    // Batched path: SoA groups against the first point's plan. Requires a
    // structurally replayable plan — otherwise (first point singular or
    // re-factored onto a different pattern, which cannot happen for a fixed
    // assembler but costs nothing to check) the sweep runs the scalar body,
    // which is bit-identical anyway.
    const auto plan = cache.lu.plan();
    const bool batched = sparse::use_batched_replay(plan.get(), cache.assembler->pattern());
    const int width = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(sparse::kDefaultBatchWidth), grid.size() - 1));
    auto batched_body = [&](std::size_t begin, std::size_t end, int lane) {
      Lane& state = lanes[static_cast<std::size_t>(lane)];
      state.replay.bind(plan, width);
      const std::size_t stride = static_cast<std::size_t>(width);
      const int dim = state.assembler.dim();
      state.s_values.resize(stride);
      for (std::size_t at = begin; at < end; at += stride) {
        if (cancel.cancelled()) throw support::CancelledError();
        const int count =
            static_cast<int>(std::min<std::size_t>(stride, end - at));
        for (int t = 0; t < count; ++t) {
          state.s_values[static_cast<std::size_t>(t)] = s_of(grid[at + 1 + static_cast<std::size_t>(t)]);
        }
        state.replay.replay(count, state.assembler.lane_assembly(state.s_values.data()));

        // Batched solves: the drive injection is the same in every lane.
        state.soa_rhs.assign(static_cast<std::size_t>(dim) * stride, std::complex<double>());
        for (int l = 0; l < count; ++l) {
          if (cache.drive_branch >= 0) {
            state.soa_rhs[static_cast<std::size_t>(cache.drive_branch) * stride +
                          static_cast<std::size_t>(l)] = 1.0;
          } else {
            if (cache.in_pos_row >= 0) {
              state.soa_rhs[static_cast<std::size_t>(cache.in_pos_row) * stride +
                            static_cast<std::size_t>(l)] += 1.0;
            }
            if (cache.in_neg_row >= 0) {
              state.soa_rhs[static_cast<std::size_t>(cache.in_neg_row) * stride +
                            static_cast<std::size_t>(l)] -= 1.0;
            }
          }
        }
        state.replay.solve(state.soa_rhs, count);

        for (int l = 0; l < count; ++l) {
          if (state.replay.lane_ok(l)) {
            auto voltage = [&](int row) -> std::complex<double> {
              return row < 0 ? std::complex<double>(0.0, 0.0)
                             : state.soa_rhs[static_cast<std::size_t>(row) * stride +
                                             static_cast<std::size_t>(l)];
            };
            values[at + 1 + static_cast<std::size_t>(l)] =
                voltage(cache.out_pos_row) - voltage(cache.out_neg_row);
            continue;
          }
          // Refused lane: solve_point's refusal branch — a throwaway fresh
          // factorization of this point alone. The planless LU makes
          // solve_point skip a second replay attempt: the lane's refusal IS
          // the refactor refusal.
          sparse::SparseLu no_plan;
          values[at + 1 + static_cast<std::size_t>(l)] =
              solve_point(cache, state.assembler, no_plan, state.rhs, /*persist_plan=*/false,
                          state.s_values[static_cast<std::size_t>(l)]);
        }
      }
    };

    auto run = batched ? std::function<void(std::size_t, std::size_t, int)>(batched_body)
                       : std::function<void(std::size_t, std::size_t, int)>(body);
    if (lane_count == 1) {
      run(0, grid.size() - 1, 0);
    } else {
      support::ThreadPool pool(lane_count);
      pool.parallel_for(grid.size() - 1, run);
    }
  }

  // Ordered reduction on the caller: dB conversion and phase unwrapping walk
  // the values in frequency order regardless of which lane produced them.
  std::vector<BodePoint> points;
  points.reserve(grid.size());
  double previous_phase = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    BodePoint p;
    p.frequency_hz = grid[i];
    p.value = values[i];
    p.magnitude_db = magnitude_db(p.value);
    double phase = phase_deg(p.value);
    if (!first) {
      while (phase - previous_phase > 180.0) phase -= 360.0;
      while (phase - previous_phase < -180.0) phase += 360.0;
    }
    p.phase_deg = phase;
    previous_phase = phase;
    first = false;
    points.push_back(p);
  }
  return points;
}

}  // namespace symref::mna
