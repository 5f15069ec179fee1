#include "transient/transient.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dc/newton.h"
#include "mna/errors.h"
#include "support/timer.h"

namespace symref::transient {

using dc::DeviceState;
using netlist::Circuit;
using netlist::Element;
using sparse::PatternStamp;

namespace {

/// Bucket key of the single non-dyadic step that lands exactly on tstop when
/// the remaining window is shorter than the current dyadic step.
constexpr int kFinalPartialBucket = -2;

/// Bucket key of the consistent-initialization solve: a BDF1 "step" of
/// near-zero length at t = 0. The huge a0·C pins every capacitor voltage and
/// inductor current at its initial value while the purely algebraic
/// unknowns relax to a consistent t = 0+ state — and the step's y1 reads off
/// the TRUE initial capacitor currents, which the trapezoidal history needs
/// (an inconsistent initial current error alternates sign forever under
/// trap instead of decaying).
constexpr int kInitBucket = -3;

/// Norton forcing applied to each .ic node during the initialization solve
/// (its stamp position is kept in every later assembly with value 0 so the
/// pattern stays pinned). Strong against ordinary circuit conductances but
/// WEAK against the initialization's a0·C (~1e12x a working step's), so a
/// capacitor at an .ic node keeps sinking essentially all of the node's
/// imbalance current — the pin must not skew the recovered i_C(0).
constexpr double kIcPinConductance = 1e6;

/// One step's integration coefficients (the table in transient.h).
struct Coefficients {
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
  double b1 = 0.0;
};

Coefficients coefficients(Method m, double h) {
  switch (m) {
    case Method::kTrapezoidal:
      return {2.0 / h, 2.0 / h, 0.0, 1.0};
    case Method::kBdf1:
      return {1.0 / h, 1.0 / h, 0.0, 0.0};
    case Method::kBdf2:
      return {1.5 / h, 2.0 / h, -0.5 / h, 0.0};
  }
  return {};
}

}  // namespace

const char* method_name(Method method) noexcept {
  switch (method) {
    case Method::kTrapezoidal:
      return "trap";
    case Method::kBdf1:
      return "bdf1";
    case Method::kBdf2:
      return "bdf2";
  }
  return "trap";
}

Method method_from_name(std::string_view name) {
  if (name == "trap" || name == "trapezoidal") return Method::kTrapezoidal;
  if (name == "bdf1" || name == "be" || name == "euler") return Method::kBdf1;
  if (name == "bdf2" || name == "gear2") return Method::kBdf2;
  throw std::invalid_argument("transient: unknown method '" + std::string(name) +
                              "' (expected trap | bdf1 | bdf2)");
}

std::vector<double> TransientResult::waveform_of(std::string_view node) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") {
    return std::vector<double>(times.size(), 0.0);
  }
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) {
      std::vector<double> wave(times.size());
      for (std::size_t k = 0; k < times.size(); ++k) wave[k] = states[k][i];
      return wave;
    }
  }
  throw std::invalid_argument("TransientResult: unknown node '" + std::string(node) + "'");
}

double TransientResult::voltage_at(std::string_view node, std::size_t k) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") return 0.0;
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) return states.at(k)[i];
  }
  throw std::invalid_argument("TransientResult: unknown node '" + std::string(node) + "'");
}

TransientSolver::TransientSolver(TransientOptions options) : options_(std::move(options)) {}

TransientResult TransientSolver::solve(const Circuit& circuit) {
  const support::Timer timer;
  if (!(options_.tstop > 0.0) || !std::isfinite(options_.tstop)) {
    throw std::invalid_argument("transient: tstop must be finite and > 0");
  }
  if (options_.tstep < 0.0 || !std::isfinite(options_.tstep)) {
    throw std::invalid_argument("transient: tstep must be finite and >= 0");
  }
  if (options_.tstep > options_.tstop) {
    throw std::invalid_argument("transient: tstep exceeds tstop");
  }

  const mna::StampTable table = dc::solver_table(circuit);

  TransientResult result;
  for (int n = 1; n < circuit.node_count(); ++n) result.node_names.push_back(circuit.node_name(n));
  result.branch_names = dc::branch_names(circuit);
  if (table.dim == 0) {
    result.times.push_back(0.0);
    result.states.emplace_back();
    result.seconds = timer.seconds();
    return result;
  }
  const std::size_t dim = static_cast<std::size_t>(table.dim);

  // --- t = 0 bias point: the DC operating point of the circuit with every
  // source held at its waveform's t = 0 level, then .ic node overrides. ----
  std::vector<double> x(dim, 0.0);
  {
    Circuit bias_circuit = circuit;
    for (const Element& e : circuit.elements()) {
      if (e.is_source()) {
        Element* mutable_e = bias_circuit.mutable_element(e.name);
        mutable_e->dc_value = e.transient_value(0.0);
        mutable_e->waveform = netlist::Waveform{};
      }
    }
    const dc::OpResult bias = dc::solve_op(bias_circuit, options_.cancel);
    result.fresh_factorizations += bias.fresh_factorizations;
    std::copy(bias.node_voltages.begin(), bias.node_voltages.end(), x.begin());
    std::copy(bias.branch_currents.begin(), bias.branch_currents.end(),
              x.begin() + table.node_rows);
  }
  for (const auto& [node, volts] : circuit.initial_conditions()) {
    x[static_cast<std::size_t>(table.row_of(node))] = volts;
  }
  std::vector<DeviceState> dev_state(circuit.devices().size());
  for (std::size_t i = 0; i < dev_state.size(); ++i) {
    dev_state[i] = dc::proposed_state(circuit.devices()[i], x, table);
  }

  result.times.push_back(0.0);
  result.states.push_back(x);

  // --- Step grid ----------------------------------------------------------
  // Fixed mode snaps the whole window onto n equal steps of ~tstep (exactly
  // reaching tstop, one bucket). Adaptive mode walks the dyadic grid
  // h = h_ref / 2^k under LTE control.
  const double h_ref = options_.tstep > 0.0 ? options_.tstep : options_.tstop / 1000.0;
  long fixed_steps = 0;
  double fixed_h = 0.0;
  if (!options_.adaptive) {
    fixed_steps = std::lround(std::ceil(options_.tstop / h_ref - 1e-9));
    fixed_steps = std::max<long>(fixed_steps, 1);
    fixed_h = options_.tstop / static_cast<double>(fixed_steps);
  }

  // --- Per-step machinery -------------------------------------------------
  // Integration history: x_prev = x_{-1}, and y = C·x' at the last accepted
  // point (zero at the bias point, which the initialization step replaces).
  std::vector<double> x_prev(x);
  std::vector<double> y(dim, 0.0);
  std::vector<double> hist(dim, 0.0);
  std::vector<double> scratch(dim, 0.0);
  // The table's C part, and the rows it touches (y is zero on every other
  // row by definition).
  std::vector<PatternStamp> c_part;
  std::vector<bool> reactive_row(dim, false);
  for (const PatternStamp& stamp : table.stamps) {
    if (stamp.capacitance == 0.0) continue;
    c_part.push_back(stamp);
    reactive_row[static_cast<std::size_t>(stamp.row)] = true;
  }
  std::vector<PatternStamp> stamps;
  std::vector<double> rhs(dim, 0.0);
  std::vector<std::complex<double>> solution;
  std::vector<double> x_new(dim, 0.0);
  std::vector<DeviceState> state_new(dev_state);
  std::set<int> buckets_used;
  const dc::NewtonControl control{kMaxNewtonIterations, kNewtonReltol, kNewtonAbstolV,
                                  kNewtonAbstolI, options_.cancel};
  bool pin_ic = false;

  // One step candidate t -> t_new = t + h against bucket `key`. Fills x_new /
  // state_new; returns false when the per-step Newton fails to converge
  // (never for a linear circuit — one replayed solve is exact).
  auto step_once = [&](Method m, double t_new, double h, int key) -> bool {
    // History term C·(a1·x0 + a2·x-1) + b1·y0, fixed for the whole step.
    const Coefficients k = coefficients(m, h);
    for (std::size_t i = 0; i < dim; ++i) scratch[i] = k.a1 * x[i] + k.a2 * x_prev[i];
    std::fill(hist.begin(), hist.end(), 0.0);
    for (const PatternStamp& stamp : c_part) {
      hist[static_cast<std::size_t>(stamp.row)] +=
          stamp.capacitance * scratch[static_cast<std::size_t>(stamp.col)];
    }
    for (std::size_t i = 0; i < dim; ++i) hist[i] += k.b1 * y[i];
    // A bucket counts as used the moment its plan is touched — including a
    // trial step later rejected by LTE control — so the replay invariant
    // "fresh factorizations == buckets + bias + init" holds exactly. The
    // initialization micro-step is accounted separately (it is not a step
    // size the run ever revisits).
    if (key != kInitBucket) buckets_used.insert(key);

    // Assemble G + a0·C at the given device states in the pinned order —
    // table stamps, device companions, .ic pin positions (nonzero only
    // during the initialization solve) — then replay the bucket's plan, or
    // record it fresh on the first visit (dc::replay_or_factor).
    const dc::LinearSolve solve_at =
        [&](const std::vector<DeviceState>& at) -> const std::vector<std::complex<double>>& {
      stamps.assign(table.stamps.begin(), table.stamps.end());
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (const mna::SourceRow& source : table.sources) {
        const Element& e = circuit.elements()[static_cast<std::size_t>(source.element)];
        rhs[static_cast<std::size_t>(source.row)] += source.sign * e.transient_value(t_new);
      }
      for (std::size_t i = 0; i < at.size(); ++i) {
        dc::stamp_device(stamps, circuit.devices()[i], at[i], kGmin, table, &rhs);
      }
      for (const auto& [node, volts] : circuit.initial_conditions()) {
        const int row = table.row_of(node);
        const double g_pin = pin_ic ? kIcPinConductance : 0.0;
        stamps.push_back({row, row, g_pin, 0.0});
        rhs[static_cast<std::size_t>(row)] += g_pin * volts;
      }
      if (!assembly_.rebind(table.dim, stamps)) {
        // First assembly of this pattern (or a different circuit): every
        // recorded bucket plan belongs to the old structure.
        assembly_ = sparse::PatternedMatrix(table.dim, stamps);
        buckets_.clear();
      }
      sparse::SparseLu& lu = buckets_[key];
      if (!dc::replay_or_factor(lu, assembly_.assemble(k.a0), &result.fresh_factorizations)) {
        std::ostringstream os;
        os << "transient: singular system at t = " << t_new
           << " (floating node or degenerate companion network?)";
        throw mna::SingularSystemError(os.str());
      }
      solution.resize(dim);
      for (std::size_t i = 0; i < dim; ++i) solution[i] = rhs[i] + hist[i];
      lu.solve(solution);
      return solution;
    };

    // Newton-per-step, warm-started at the previous accepted point.
    x_new = x;
    state_new = dev_state;
    if (circuit.devices().empty()) {
      const std::vector<std::complex<double>>& next = solve_at(state_new);
      for (std::size_t i = 0; i < dim; ++i) x_new[i] = next[i].real();
      return true;
    }
    return dc::newton_solve(circuit, table, control, solve_at, x_new, state_new,
                            &result.newton_iterations);
  };

  // Accept the candidate in x_new: shift the history and record y1 = C·x1'.
  // y1 is read off the step's own equation G·x1 + y1 = b(t1) (device
  // currents and .ic pins included): the last assembly's right-hand side
  // without the history, minus its G part times x1. In exact arithmetic this
  // is C·(a0·x1 - a1·x0 - a2·x-1) - b1·y0, but it carries no 1/h factor: the
  // initialization step's a0 ~ 1e12/h would amplify the last-bit rounding
  // of x1 - x0 into a spurious current that trap never damps.
  double h_last = 0.0;
  auto take_step = [&] {
    y = rhs;
    for (const PatternStamp& stamp : stamps) {
      y[static_cast<std::size_t>(stamp.row)] -=
          stamp.conductance * x_new[static_cast<std::size_t>(stamp.col)];
    }
    for (std::size_t i = 0; i < dim; ++i) {
      if (!reactive_row[i]) y[i] = 0.0;
    }
    x_prev = x;
    x = x_new;
    dev_state = state_new;
  };
  auto accept_step = [&](double t_new, double h) {
    take_step();
    h_last = h;
    result.times.push_back(t_new);
    result.states.push_back(x);
    ++result.steps;
  };

  // BDF2 needs two accepted points at the SAME step size; startup steps and
  // the first step after a bucket change fall back to BDF1 for one step.
  auto effective_method = [&](double h) {
    if (options_.method == Method::kBdf2 &&
        (result.steps < 1 || std::fabs(h - h_last) > 1e-12 * h)) {
      return Method::kBdf1;
    }
    return options_.method;
  };

  // Quadratic-extrapolation LTE estimate of the freshly computed x_new
  // against the last three accepted points; <= 1 accepts.
  auto lte_ratio = [&](double t_new) -> double {
    const std::size_t n = result.times.size();
    if (n < 3) return 0.0;  // not enough history: accept
    const double t0 = result.times[n - 1];
    const double t1 = result.times[n - 2];
    const double t2 = result.times[n - 3];
    const double c0 = ((t_new - t1) * (t_new - t2)) / ((t0 - t1) * (t0 - t2));
    const double c1 = ((t_new - t0) * (t_new - t2)) / ((t1 - t0) * (t1 - t2));
    const double c2 = ((t_new - t0) * (t_new - t1)) / ((t2 - t0) * (t2 - t1));
    const std::vector<double>& s0 = result.states[n - 1];
    const std::vector<double>& s1 = result.states[n - 2];
    const std::vector<double>& s2 = result.states[n - 3];
    double worst = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double predicted = c0 * s0[i] + c1 * s1[i] + c2 * s2[i];
      const double tol =
          kLteAbstol + kLteReltol * std::max(std::fabs(x_new[i]), std::fabs(predicted));
      worst = std::max(worst, std::fabs(x_new[i] - predicted) / tol);
    }
    return worst;
  };

  // --- Consistent initialization ------------------------------------------
  // The bias point plus .ic overrides fixes the differential state
  // (capacitor voltages, inductor currents) but leaves the algebraic
  // unknowns inconsistent: an .ic-forced node drags its neighbours, and the
  // initial capacitor CURRENTS are not part of the DC solution at all. One
  // near-zero-length BDF1 step pins the differential state (a0·C ~ 1e12x a
  // working step's) and relaxes everything else; its y1 is the true t = 0+
  // C·x' the trapezoidal history needs.
  if (!c_part.empty() || !circuit.initial_conditions().empty()) {
    const double h_first = options_.adaptive ? h_ref : fixed_h;
    const double h_init = h_first * 1e-12;
    pin_ic = true;
    const bool init_ok = step_once(Method::kBdf1, 0.0, h_init, kInitBucket);
    pin_ic = false;
    if (!init_ok) {
      throw NoConvergenceError(
          "transient: Newton failed to converge on the t = 0 initialization solve");
    }
    take_step();
    x_prev = x;  // startup duplicate: BDF2's two-point history starts uniform
    result.states[0] = x;
  }

  // --- Time loop ----------------------------------------------------------
  int attempts = 0;
  auto check_budget = [&] {
    if (options_.cancel.cancelled()) throw support::CancelledError();
    if (++attempts > kMaxSteps) {
      std::ostringstream os;
      os << "transient: step budget exhausted (" << kMaxSteps << " attempts, "
         << result.steps << " accepted, t = " << result.times.back() << " of "
         << options_.tstop << ")";
      throw NoConvergenceError(os.str());
    }
  };

  if (!options_.adaptive) {
    for (long n = 1; n <= fixed_steps; ++n) {
      check_budget();
      const double t_new = n == fixed_steps
                               ? options_.tstop
                               : options_.tstop * static_cast<double>(n) /
                                     static_cast<double>(fixed_steps);
      const Method m = effective_method(fixed_h);
      if (!step_once(m, t_new, fixed_h, 0)) {
        std::ostringstream os;
        os << "transient: Newton failed to converge at t = " << t_new
           << " with fixed step " << fixed_h << " (try a smaller tstep or adaptive control)";
        throw NoConvergenceError(os.str());
      }
      accept_step(t_new, fixed_h);
    }
  } else {
    int k = 0;  // current halving depth: h = h_ref / 2^k
    int calm_streak = 0;
    double t = 0.0;
    while (t < options_.tstop * (1.0 - 1e-12)) {
      check_budget();
      double h = std::ldexp(h_ref, -k);
      int key = k;
      if (t + h > options_.tstop) {
        h = options_.tstop - t;
        key = kFinalPartialBucket;
      }
      const double t_new = key == kFinalPartialBucket ? options_.tstop : t + h;
      const Method m = effective_method(h);

      const bool newton_ok = step_once(m, t_new, h, key);
      const double err = newton_ok ? lte_ratio(t_new) : 0.0;
      if (!newton_ok || err > 1.0) {
        if (newton_ok) ++result.lte_rejections;
        if (k >= kMaxHalvings) {
          if (!newton_ok) {
            std::ostringstream os;
            os << "transient: Newton failed to converge at t = " << t_new
               << " with the minimum step " << h;
            throw NoConvergenceError(os.str());
          }
          // LTE floor: the grid cannot be refined further — accept the best
          // available step rather than spinning (SPICE's trtol escape).
        } else {
          ++k;
          calm_streak = 0;
          continue;
        }
      }
      accept_step(t_new, h);
      t = t_new;
      // Sustained headroom grows the step back toward h_ref (the predictor
      // error scales ~h^3, so a generous margin is required before doubling).
      if (err < 0.05 && key == k) {
        if (++calm_streak >= 3 && k > 0) {
          --k;
          calm_streak = 0;
        }
      } else {
        calm_streak = 0;
      }
    }
  }

  result.step_size_buckets = static_cast<int>(buckets_used.size());
  result.seconds = timer.seconds();
  return result;
}

TransientResult solve_transient(const Circuit& circuit, const TransientOptions& options) {
  TransientSolver solver(options);
  return solver.solve(circuit);
}

}  // namespace symref::transient
