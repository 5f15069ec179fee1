#include "mna/param_sweep.h"

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "dc/linearize.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "support/random.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace symref::mna {

namespace {

constexpr double kPi = 3.14159265358979323846;

void check_names(const std::vector<std::string>& names, const char* what) {
  if (names.empty()) {
    throw std::invalid_argument(std::string(what) + ": at least one parameter is required");
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty()) {
      throw std::invalid_argument(std::string(what) + ": empty parameter name");
    }
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        throw std::invalid_argument(std::string(what) + ": duplicate parameter '" +
                                    names[i] + "'");
      }
    }
  }
}

/// Uniform double in (0, 1] — never 0, so log() below stays finite.
double to_unit(std::uint64_t bits) noexcept {
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

}  // namespace

ParamSamplePlan grid_samples(const std::vector<ParamAxis>& axes) {
  ParamSamplePlan plan;
  for (const ParamAxis& axis : axes) plan.names.push_back(axis.name);
  check_names(plan.names, "grid_samples");

  std::size_t total = 1;
  for (const ParamAxis& axis : axes) {
    if (axis.count < 1) {
      throw std::invalid_argument("grid_samples: '" + axis.name + "': count must be >= 1");
    }
    if (axis.log_scale && (axis.from <= 0.0 || axis.to <= 0.0)) {
      throw std::invalid_argument("grid_samples: '" + axis.name +
                                  "': log spacing needs a positive range");
    }
    if (!std::isfinite(axis.from) || !std::isfinite(axis.to)) {
      throw std::invalid_argument("grid_samples: '" + axis.name + "': non-finite range");
    }
    total *= static_cast<std::size_t>(axis.count);
    if (total > kMaxGridPoints) {
      throw std::invalid_argument("grid_samples: more than 2^20 grid points");
    }
  }

  auto axis_value = [](const ParamAxis& axis, int step) {
    if (axis.count == 1) return axis.from;
    const double t = static_cast<double>(step) / static_cast<double>(axis.count - 1);
    if (axis.log_scale) {
      return std::exp(std::log(axis.from) + t * (std::log(axis.to) - std::log(axis.from)));
    }
    return axis.from + t * (axis.to - axis.from);
  };

  // Odometer over the axes, first axis slowest.
  std::vector<int> step(axes.size(), 0);
  plan.values.reserve(total * axes.size());
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t j = 0; j < axes.size(); ++j) {
      plan.values.push_back(axis_value(axes[j], step[j]));
    }
    for (std::size_t j = axes.size(); j-- > 0;) {
      if (++step[j] < axes[j].count) break;
      step[j] = 0;
    }
  }
  return plan;
}

ParamSamplePlan monte_carlo_samples(const std::vector<ParamDist>& dists, int samples,
                                    std::uint64_t seed) {
  ParamSamplePlan plan;
  for (const ParamDist& dist : dists) plan.names.push_back(dist.name);
  check_names(plan.names, "monte_carlo_samples");
  if (samples < 1) {
    throw std::invalid_argument("monte_carlo_samples: samples must be >= 1");
  }
  if (samples > kMaxGridPoints) {
    throw std::invalid_argument("monte_carlo_samples: more than 2^20 samples");
  }
  for (const ParamDist& dist : dists) {
    if (!(dist.rel_sigma >= 0.0) || !std::isfinite(dist.rel_sigma) ||
        !std::isfinite(dist.nominal)) {
      throw std::invalid_argument("monte_carlo_samples: '" + dist.name +
                                  "': bad nominal/rel_sigma");
    }
  }

  plan.values.reserve(static_cast<std::size_t>(samples) * dists.size());
  for (int i = 0; i < samples; ++i) {
    for (std::size_t j = 0; j < dists.size(); ++j) {
      const ParamDist& dist = dists[j];
      std::uint64_t h = support::mix64(seed + 0x51'7C'C1'B7'27'22'0A'95ull);
      h = support::mix64(h ^ (static_cast<std::uint64_t>(i) * 0xC2B2AE3D27D4EB4Full));
      h = support::mix64(h ^ ((j + 1) * 0x165667B19E3779F9ull));
      const double u1 = to_unit(h);
      const double u2 = to_unit(support::mix64(h ^ 0xD6E8FEB86659FD93ull));
      double draw = 0.0;
      if (dist.kind == ParamDist::Kind::kGaussian) {
        draw = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
      } else {
        draw = 2.0 * u1 - 1.0;
      }
      plan.values.push_back(dist.nominal * (1.0 + dist.rel_sigma * draw));
    }
  }
  return plan;
}

ParamSweepResult run_param_sweep(const netlist::NetlistTemplate& netlist,
                                 const ParamSamplePlan& plan,
                                 const ParamSweepOptions& options) {
  support::Timer timer;
  if (!netlist.valid()) {
    throw std::invalid_argument("run_param_sweep: empty netlist template");
  }
  check_names(plan.names, "run_param_sweep");
  for (const std::string& name : plan.names) {
    if (!netlist.has_parameter(name)) {
      throw std::invalid_argument("run_param_sweep: netlist has no top-level parameter '" +
                                  name + "' (add a .param card to sweep it)");
    }
  }
  const std::size_t width = plan.names.size();
  if (plan.values.size() % width != 0) {
    throw std::invalid_argument("run_param_sweep: ragged sample plan");
  }

  ParamSweepResult result;
  result.names = plan.names;
  result.frequencies_hz =
      log_frequency_grid(options.f_start_hz, options.f_stop_hz, options.points_per_decade);
  result.values = plan.values;

  const std::size_t samples = plan.sample_count();
  const std::size_t points = result.frequencies_hz.size();
  if (samples > kMaxGridPoints / points) {
    throw std::invalid_argument("run_param_sweep: more than 2^20 response values");
  }
  result.response.assign(samples * points,
                         std::complex<double>(std::numeric_limits<double>::quiet_NaN(),
                                              std::numeric_limits<double>::quiet_NaN()));
  result.ok.assign(samples, 0);
  if (samples == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  // Baseline on the caller: nominal elaboration, plan factored at the first
  // probe frequency. Every lane clones this evaluator — the clones share
  // the immutable symbolic plan and replay it per (sample, point).
  //
  // Device-bearing netlists get a second baseline: the nominal DC bias is
  // solved once here, recording the Newton Jacobian plan, and every sample
  // re-biases on a fresh copy of THAT solver — so every per-sample re-bias
  // replays one shared plan, exactly like the AC points replay the
  // evaluator's, and depends only on (plan, sample).
  const netlist::Circuit base_circuit = netlist.elaborate();
  const bool has_devices = base_circuit.has_devices();
  dc::OpSolver base_op_solver(options.cancel);
  netlist::Circuit base_linear = base_circuit;
  if (has_devices) {
    const dc::OpResult base_op = base_op_solver.solve(base_circuit);
    result.op_solves = 1;
    result.newton_iterations = static_cast<std::uint64_t>(base_op.newton_iterations);
    base_linear = dc::linearize_at(base_circuit, base_op);
  }
  const netlist::Circuit base_canonical = netlist::canonicalize(base_linear);
  const NodalSystem base_system(base_canonical);
  CofactorEvaluator baseline(base_system, options.spec);
  const std::complex<double> s0(0.0, 2.0 * kPi * result.frequencies_hz.front());
  (void)baseline.evaluate(s0, 1.0, 1.0);  // one fresh factorization, counted below

  // Probe grid in s, shared by every sample's evaluate_pinned_batch call.
  std::vector<std::complex<double>> probe_points;
  probe_points.reserve(points);
  for (std::size_t k = 0; k < points; ++k) {
    probe_points.emplace_back(0.0, 2.0 * kPi * result.frequencies_hz[k]);
  }

  // Per-lane state, cloned lazily on the lane's first chunk. `start` makes
  // the fresh-factor tally a delta, so the baseline's own factorization is
  // not double counted through the clones.
  struct Lane {
    CofactorEvaluator eval;
    std::uint64_t start = 0;
    std::uint64_t op_fresh = 0;
    std::uint64_t op_solves = 0;
    std::uint64_t newton_iterations = 0;
  };
  support::ThreadPool pool(options.threads);
  std::vector<std::unique_ptr<Lane>> lanes(static_cast<std::size_t>(pool.size()));

  auto body = [&](std::size_t begin, std::size_t end, int lane_index) {
    std::unique_ptr<Lane>& slot = lanes[static_cast<std::size_t>(lane_index)];
    if (!slot) {
      slot = std::make_unique<Lane>(Lane{baseline});
      slot->start = slot->eval.fresh_factor_count();
    }
    std::map<std::string, double> overrides;
    for (std::size_t i = begin; i < end; ++i) {
      if (options.cancel.cancelled()) throw support::CancelledError();
      overrides.clear();
      for (std::size_t j = 0; j < width; ++j) {
        overrides[plan.names[j]] = plan.values[i * width + j];
      }
      // Same topology, new values: re-elaborate, rebind the pattern in
      // place, replay the pinned plan per probe point. Device-bearing
      // samples are re-biased first (replaying the cloned Newton plan) and
      // analyzed through their own linearization.
      const netlist::Circuit circuit = netlist.elaborate(overrides);
      netlist::Circuit linear_storage;
      const netlist::Circuit* linear = &circuit;
      if (has_devices) {
        dc::OpSolver op_solver = base_op_solver;
        const dc::OpResult op = op_solver.solve(circuit);
        slot->op_fresh += op.fresh_factorizations;
        slot->op_solves += 1;
        slot->newton_iterations += static_cast<std::uint64_t>(op.newton_iterations);
        linear_storage = dc::linearize_at(circuit, op);
        linear = &linear_storage;
      }
      const netlist::Circuit canonical = netlist::canonicalize(*linear);
      const NodalSystem system(canonical);
      slot->eval.rebind(system);
      std::uint8_t all_ok = 1;
      const std::vector<CofactorEvaluator::Sample> point_samples =
          slot->eval.evaluate_pinned_batch(probe_points, 1.0, 1.0);
      for (std::size_t k = 0; k < points; ++k) {
        const CofactorEvaluator::Sample& sample = point_samples[k];
        if (!sample.ok || sample.denominator.is_zero()) {
          all_ok = 0;
          continue;  // the slot keeps its NaN marker
        }
        result.response[i * points + k] = (sample.numerator / sample.denominator).to_complex();
      }
      result.ok[i] = all_ok;
    }
  };
  pool.parallel_for(samples, body);

  result.fresh_factorizations = baseline.fresh_factor_count() +
                                (has_devices ? base_op_solver.fresh_factor_count() : 0);
  for (const std::unique_ptr<Lane>& lane : lanes) {
    if (!lane) continue;
    result.fresh_factorizations += lane->eval.fresh_factor_count() - lane->start;
    result.fresh_factorizations += lane->op_fresh;
    result.op_solves += lane->op_solves;
    result.newton_iterations += lane->newton_iterations;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace symref::mna
