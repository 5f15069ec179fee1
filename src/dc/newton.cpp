#include "dc/newton.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "devices/models.h"
#include "mna/errors.h"
#include "support/timer.h"

namespace symref::dc {

using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using sparse::PatternStamp;

OpSolver::OpSolver(support::CancellationToken cancel) : cancel_(std::move(cancel)) {}

OpResult OpSolver::solve(const Circuit& circuit) {
  const support::Timer timer;
  const mna::StampTable table = solver_table(circuit);

  OpResult result;
  for (int n = 1; n < circuit.node_count(); ++n) result.node_names.push_back(circuit.node_name(n));
  result.branch_names = branch_names(circuit);
  if (table.dim == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  const std::size_t dim = static_cast<std::size_t>(table.dim);
  std::vector<double> x(dim, 0.0);
  std::vector<DeviceState> state(circuit.devices().size());
  std::vector<PatternStamp> stamps;
  std::vector<double> rhs(dim, 0.0);
  std::vector<std::complex<double>> solution;
  std::uint64_t fresh = 0;
  int iterations = 0;
  const NewtonControl control{kMaxNewtonIterations, kNewtonReltol, kNewtonAbstolV,
                              kNewtonAbstolI, cancel_};

  auto reset_start = [&] {
    std::fill(x.begin(), x.end(), 0.0);
    for (std::size_t i = 0; i < state.size(); ++i) state[i] = initial_state(circuit.devices()[i]);
  };

  // One damped Newton stage at a fixed (gmin, source scale). Returns true on
  // convergence; x/state carry the last iterate either way.
  auto newton_stage = [&](double gmin, double alpha) -> bool {
    const LinearSolve solve_at =
        [&](const std::vector<DeviceState>& at) -> const std::vector<std::complex<double>>& {
      // Assemble: table stamps + device companions at the given state.
      stamps.assign(table.stamps.begin(), table.stamps.end());
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (const mna::SourceRow& source : table.sources) {
        const double level =
            circuit.elements()[static_cast<std::size_t>(source.element)].dc_value;
        rhs[static_cast<std::size_t>(source.row)] += alpha * (source.sign * level);
      }
      for (std::size_t i = 0; i < at.size(); ++i) {
        stamp_device(stamps, circuit.devices()[i], at[i], gmin, table, &rhs);
      }
      if (!assembly_.rebind(table.dim, stamps)) {
        // New merged structure (first solve, or a different circuit): a
        // fresh pattern invalidates any recorded plan.
        assembly_ = sparse::PatternedMatrix(table.dim, stamps);
        lu_ = sparse::SparseLu();
      }
      if (!replay_or_factor(lu_, assembly_.assemble(0.0), &fresh)) {
        throw mna::SingularSystemError(
            "dc: singular Jacobian (floating node or degenerate DC path?)");
      }
      solution.assign(rhs.begin(), rhs.end());
      lu_.solve(solution);
      return solution;
    };
    return newton_solve(circuit, table, control, solve_at, x, state, &iterations);
  };

  // --- Homotopy ladder ----------------------------------------------------
  int gmin_steps = 0;
  int source_steps = 0;
  reset_start();
  bool converged = newton_stage(kGmin, 1.0);

  if (!converged) {
    // gmin stepping: walk the junction shunt down geometrically; the stamp
    // pattern (and hence the plan) is identical at every rung.
    reset_start();
    bool ladder_ok = true;
    for (double g = kGminStart; ladder_ok && g > kGmin * 0.999; g *= 0.1) {
      ++gmin_steps;
      ladder_ok = newton_stage(g, 1.0);
    }
    if (ladder_ok) {
      ++gmin_steps;
      converged = newton_stage(kGmin, 1.0);
    }
  }

  if (!converged) {
    // Source stepping: ramp every DC source from zero (where x = 0 solves
    // the system exactly) up to full scale.
    reset_start();
    bool ramp_ok = true;
    for (int k = 1; ramp_ok && k <= kSourceSteps; ++k) {
      ++source_steps;
      ramp_ok = newton_stage(kGmin, static_cast<double>(k) / static_cast<double>(kSourceSteps));
    }
    converged = ramp_ok;
  }

  result.newton_iterations = iterations;
  result.gmin_steps = gmin_steps;
  result.source_steps = source_steps;
  fresh_factors_ += fresh;
  result.fresh_factorizations = fresh;

  if (!converged) {
    std::ostringstream os;
    os << "dc: no convergence after " << iterations << " Newton iterations ("
       << gmin_steps << " gmin steps, " << source_steps << " source steps)";
    throw NoConvergenceError(os.str());
  }

  // Final residual (infinity norm over the KCL rows, in amps) from the last
  // assembled system: F = A*x - b.
  {
    std::vector<double> f(dim, 0.0);
    for (const PatternStamp& s : stamps) {
      f[static_cast<std::size_t>(s.row)] +=
          s.conductance * x[static_cast<std::size_t>(s.col)];
    }
    double max_res = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(table.node_rows); ++i) {
      max_res = std::max(max_res, std::fabs(f[i] - rhs[i]));
    }
    result.max_residual = max_res;
  }

  result.node_voltages.assign(x.begin(), x.begin() + table.node_rows);
  result.branch_currents.assign(x.begin() + table.node_rows, x.end());

  // Device operating-point table (terminal frame: voltages/currents carry
  // the device's sign; small-signal magnitudes are positive).
  for (std::size_t i = 0; i < circuit.devices().size(); ++i) {
    const Device& d = circuit.devices()[i];
    const double pol = static_cast<double>(d.polarity);
    OpDeviceInfo info;
    info.name = d.name;
    info.kind = netlist::device_kind_name(d.kind);
    switch (d.kind) {
      case DeviceKind::kDiode: {
        const devices::DiodeEval e = devices::eval_diode(d.model, state[i].v1);
        const devices::DiodeSmallSignal ss = devices::diode_small_signal(d.model, state[i].v1);
        info.values = {{"vd", pol * state[i].v1},
                       {"id", pol * e.id},
                       {"gd", ss.gd},
                       {"c", ss.c}};
        break;
      }
      case DeviceKind::kBjt: {
        const devices::BjtEval e = devices::eval_bjt(d.model, state[i].v1, state[i].v2);
        const netlist::BjtParams p = devices::bjt_small_signal(d.model, e.ic);
        info.values = {{"vbe", pol * state[i].v1}, {"vbc", pol * state[i].v2},
                       {"ic", pol * e.ic},         {"ib", pol * e.ib},
                       {"gm", p.gm},               {"rpi", p.gm > 0.0 ? p.beta / p.gm : 0.0},
                       {"ro", p.ro}};
        break;
      }
      case DeviceKind::kMos: {
        const devices::MosEval e = devices::eval_mos(d.model, state[i].v1, state[i].v2);
        info.values = {{"vgs", pol * state[i].v1},
                       {"vds", pol * state[i].v2},
                       {"id", pol * e.id},
                       {"gm", e.did_dvgs},
                       {"gds", e.did_dvds}};
        break;
      }
    }
    result.devices.push_back(std::move(info));
  }

  result.seconds = timer.seconds();
  return result;
}

double OpDeviceInfo::value(std::string_view key) const {
  for (const auto& [k, v] : values) {
    if (k == key) return v;
  }
  return 0.0;
}

double OpResult::voltage_of(std::string_view node) const {
  if (node == "0" || node == "gnd" || node == "GND" || node == "Gnd") return 0.0;
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == node) return node_voltages[i];
  }
  throw std::invalid_argument("OpResult: unknown node '" + std::string(node) + "'");
}

OpResult solve_op(const Circuit& circuit, support::CancellationToken cancel) {
  OpSolver solver(std::move(cancel));
  return solver.solve(circuit);
}

}  // namespace symref::dc
