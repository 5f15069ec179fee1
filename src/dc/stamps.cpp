#include "dc/stamps.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "devices/models.h"
#include "mna/errors.h"
#include "support/fault_injection.h"

namespace symref::dc {

using mna::stamp_admittance;
using mna::stamp_entry;
using netlist::Circuit;
using netlist::Device;
using netlist::DeviceKind;
using netlist::Element;
using sparse::PatternStamp;

namespace {

/// Pivot threshold of a Newton Jacobian's fresh factorization (see
/// replay_or_factor in the header).
constexpr double kNewtonPivotThreshold = 1e-6;

}  // namespace

bool replay_or_factor(sparse::SparseLu& lu, const sparse::CompressedMatrix& matrix,
                      std::uint64_t* fresh) {
  if (lu.has_plan() && support::fault("newton_step")) lu = sparse::SparseLu();
  return lu.replay_or_factor(matrix, fresh, kNewtonPivotThreshold);
}

mna::StampTable solver_table(const Circuit& circuit) {
  mna::StampTable table = mna::build_stamp_table(circuit);
  if (!table.error.empty()) throw std::invalid_argument("dc: " + table.error);
  for (int n = 1; n < circuit.node_count(); ++n) {
    if (table.row_of(n) < 0) {
      throw mna::SingularSystemError("dc: node '" + circuit.node_name(n) +
                                     "' is not connected to any element or device");
    }
  }
  return table;
}

std::vector<std::string> branch_names(const Circuit& circuit) {
  std::vector<std::string> names;
  for (const Element& e : circuit.elements()) {
    if (e.needs_branch_current()) names.push_back(e.name);
  }
  return names;
}

void stamp_device(std::vector<PatternStamp>& stamps, const Device& d, const DeviceState& state,
                  double gmin, const mna::StampTable& table, std::vector<double>* rhs) {
  const double pol = static_cast<double>(d.polarity);
  switch (d.kind) {
    case DeviceKind::kDiode: {
      const int ra = table.row_of(d.nodes[0]);
      const int rc = table.row_of(d.nodes[1]);
      const devices::DiodeEval e = devices::eval_diode(d.model, state.v1);
      stamp_admittance(stamps, ra, rc, e.gd + gmin);
      if (ra >= 0) (*rhs)[static_cast<std::size_t>(ra)] -= pol * e.ieq;
      if (rc >= 0) (*rhs)[static_cast<std::size_t>(rc)] += pol * e.ieq;
      break;
    }
    case DeviceKind::kBjt: {
      const int rc = table.row_of(d.nodes[0]);
      const int rb = table.row_of(d.nodes[1]);
      const int re = table.row_of(d.nodes[2]);
      const devices::BjtEval e = devices::eval_bjt(d.model, state.v1, state.v2);
      // Terminal-frame Jacobian (polarity cancels in every derivative):
      //   d ic/dVb = dic_dvbe + dic_dvbc, d ic/dVe = -dic_dvbe,
      //   d ic/dVc = -dic_dvbc; the base row likewise, and the emitter row
      //   is the negated column-wise sum of the two.
      // Collector row.
      stamp_entry(stamps, rc, rb, e.dic_dvbe + e.dic_dvbc);
      stamp_entry(stamps, rc, re, -e.dic_dvbe);
      stamp_entry(stamps, rc, rc, -e.dic_dvbc);
      // Base row.
      stamp_entry(stamps, rb, rb, e.dib_dvbe + e.dib_dvbc);
      stamp_entry(stamps, rb, re, -e.dib_dvbe);
      stamp_entry(stamps, rb, rc, -e.dib_dvbc);
      // Emitter row: ie = -(ic + ib).
      stamp_entry(stamps, re, rb, -(e.dic_dvbe + e.dic_dvbc + e.dib_dvbe + e.dib_dvbc));
      stamp_entry(stamps, re, re, e.dic_dvbe + e.dib_dvbe);
      stamp_entry(stamps, re, rc, e.dic_dvbc + e.dib_dvbc);
      // Junction gmin shunts.
      stamp_admittance(stamps, rb, re, gmin);
      stamp_admittance(stamps, rb, rc, gmin);
      if (rc >= 0) (*rhs)[static_cast<std::size_t>(rc)] -= pol * e.ic_eq;
      if (rb >= 0) (*rhs)[static_cast<std::size_t>(rb)] -= pol * e.ib_eq;
      if (re >= 0) (*rhs)[static_cast<std::size_t>(re)] += pol * (e.ic_eq + e.ib_eq);
      break;
    }
    case DeviceKind::kMos: {
      const int rd = table.row_of(d.nodes[0]);
      const int rg = table.row_of(d.nodes[1]);
      const int rs = table.row_of(d.nodes[2]);
      const devices::MosEval e = devices::eval_mos(d.model, state.v1, state.v2);
      // Drain row: id depends on vgs = Vg - Vs and vds = Vd - Vs.
      stamp_entry(stamps, rd, rg, e.did_dvgs);
      stamp_entry(stamps, rd, rd, e.did_dvds);
      stamp_entry(stamps, rd, rs, -(e.did_dvgs + e.did_dvds));
      // Source row: is = -id.
      stamp_entry(stamps, rs, rg, -e.did_dvgs);
      stamp_entry(stamps, rs, rd, -e.did_dvds);
      stamp_entry(stamps, rs, rs, e.did_dvgs + e.did_dvds);
      // Channel gmin (keeps a cut-off device's drain/source rows alive).
      stamp_admittance(stamps, rd, rs, gmin);
      if (rd >= 0) (*rhs)[static_cast<std::size_t>(rd)] -= pol * e.id_eq;
      if (rs >= 0) (*rhs)[static_cast<std::size_t>(rs)] += pol * e.id_eq;
      break;
    }
  }
}

DeviceState proposed_state(const Device& d, const std::vector<double>& x,
                           const mna::StampTable& table) {
  auto v = [&](int node) {
    const int r = table.row_of(node);
    return r < 0 ? 0.0 : x[static_cast<std::size_t>(r)];
  };
  const double pol = static_cast<double>(d.polarity);
  DeviceState s;
  switch (d.kind) {
    case DeviceKind::kDiode:
      s.v1 = pol * (v(d.nodes[0]) - v(d.nodes[1]));
      break;
    case DeviceKind::kBjt:
      s.v1 = pol * (v(d.nodes[1]) - v(d.nodes[2]));  // vbe
      s.v2 = pol * (v(d.nodes[1]) - v(d.nodes[0]));  // vbc
      break;
    case DeviceKind::kMos:
      s.v1 = pol * (v(d.nodes[1]) - v(d.nodes[2]));  // vgs
      s.v2 = pol * (v(d.nodes[0]) - v(d.nodes[2]));  // vds
      break;
  }
  return s;
}

DeviceState initial_state(const Device& d) {
  DeviceState s;
  const double n_vt = d.model.n * devices::kThermalVoltage;
  switch (d.kind) {
    case DeviceKind::kDiode:
      s.v1 = devices::junction_vcrit(d.model.is, n_vt);
      break;
    case DeviceKind::kBjt:
      s.v1 = devices::junction_vcrit(d.model.is, n_vt);
      s.v2 = 0.0;
      break;
    case DeviceKind::kMos:
      s.v1 = d.model.vto;  // edge of conduction
      s.v2 = 0.0;
      break;
  }
  return s;
}

DeviceState limit_state(const Device& d, const DeviceState& proposed, const DeviceState& old,
                        bool* limited) {
  DeviceState next = proposed;
  const double n_vt = d.model.n * devices::kThermalVoltage;
  const double vcrit = devices::junction_vcrit(d.model.is, n_vt);
  switch (d.kind) {
    case DeviceKind::kDiode:
      next.v1 = devices::pnjlim(proposed.v1, old.v1, n_vt, vcrit, limited);
      break;
    case DeviceKind::kBjt:
      next.v1 = devices::pnjlim(proposed.v1, old.v1, n_vt, vcrit, limited);
      next.v2 = devices::pnjlim(proposed.v2, old.v2, n_vt, vcrit, limited);
      break;
    case DeviceKind::kMos:
      break;
  }
  return next;
}

bool newton_solve(const Circuit& circuit, const mna::StampTable& table,
                  const NewtonControl& control, const LinearSolve& solve,
                  std::vector<double>& x, std::vector<DeviceState>& state, int* iterations) {
  const std::size_t node_rows = static_cast<std::size_t>(table.node_rows);
  for (int iter = 0; iter < control.max_iterations; ++iter) {
    if (control.cancel.cancelled()) throw support::CancelledError();
    ++*iterations;
    const std::vector<std::complex<double>>& next = solve(state);

    // Damped acceptance: per-component clamp on the node-voltage step.
    bool clamped = false;
    double max_rel = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double delta = next[i].real() - x[i];
      if (i < node_rows && std::fabs(delta) > kMaxVoltageStep) {
        delta = delta > 0 ? kMaxVoltageStep : -kMaxVoltageStep;
        clamped = true;
      }
      const double accepted = x[i] + delta;
      const double abstol = i < node_rows ? control.abstol_v : control.abstol_i;
      const double tol = abstol + control.reltol * std::max(std::fabs(accepted), std::fabs(x[i]));
      max_rel = std::max(max_rel, std::fabs(delta) / tol);
      x[i] = accepted;
    }

    // Junction limiting against the previous evaluation point.
    bool limited = false;
    for (std::size_t i = 0; i < state.size(); ++i) {
      const Device& d = circuit.devices()[i];
      state[i] = limit_state(d, proposed_state(d, x, table), state[i], &limited);
    }
    if (!clamped && !limited && max_rel <= 1.0 && iter > 0) return true;
  }
  return false;
}

}  // namespace symref::dc
