#include "mna/nodal.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "mna/assembler.h"
#include "mna/errors.h"
#include "netlist/canonical.h"
#include "numeric/stats.h"

namespace symref::mna {

using netlist::Element;
using netlist::ElementKind;

NodalSystem::NodalSystem(const netlist::Circuit& circuit) : circuit_(circuit) {
  if (!netlist::is_canonical(circuit)) {
    throw std::invalid_argument(
        "NodalSystem: circuit is not canonical; run netlist::canonicalize first");
  }
  for (const Element& e : circuit.elements()) {
    // Reject NaN/Inf element values up front: a non-finite stamp would slip
    // through the LU replay as a "successful" factorization of garbage.
    if (!std::isfinite(e.value)) {
      throw SpecError("NodalSystem: non-finite value on element '" + e.name + "'");
    }
    if (e.kind == ElementKind::Capacitor && e.node_pos != e.node_neg) ++capacitor_count_;
  }

  // Merge the table's stamps position-wise: sorted by (row, col), each
  // position summed in emission order from +0.0.
  StampTable table = build_stamp_table(circuit);
  dim_ = table.dim;
  node_to_row_ = std::move(table.node_to_row);
  std::stable_sort(table.stamps.begin(), table.stamps.end(),
                   [](const PatternStamp& a, const PatternStamp& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  for (const PatternStamp& stamp : table.stamps) {
    if (entries_.empty() || entries_.back().row != stamp.row || entries_.back().col != stamp.col) {
      entries_.push_back({stamp.row, stamp.col, 0.0, 0.0});
    }
    entries_.back().conductance += stamp.conductance;
    entries_.back().capacitance += stamp.capacitance;
  }
}

std::optional<int> NodalSystem::row_of_node(std::string_view name) const {
  const auto node = circuit_.find_node(name);
  if (!node) return std::nullopt;
  if (*node == 0) return std::nullopt;
  const int row = node_to_row_[static_cast<std::size_t>(*node)];
  return row < 0 ? std::nullopt : std::optional<int>(row);
}

CofactorEvaluator::CofactorEvaluator(const NodalSystem& system, const TransferSpec& spec)
    : system_(&system), spec_(spec) {
  if (spec_.kind == TransferSpec::Kind::VoltageGain) {
    // Typical element magnitudes keep the drive admittance in the same
    // range as the rest of the (scaled) matrix. Chosen once: rebind() keeps
    // these values so every parameter sample sees the identical drive (any
    // value is exact — see the Sherman-Morrison note in the header).
    const auto conductances = system.circuit().conductance_values();
    const auto capacitances = system.circuit().capacitor_values();
    drive_conductance_ = numeric::geometric_mean(conductances);
    if (drive_conductance_ <= 0.0) drive_conductance_ = 1.0;
    drive_capacitance_ = numeric::geometric_mean(capacitances);
  }
  bind_system();
}

void CofactorEvaluator::bind_system() {
  const SpecRows rows =
      resolve_spec(system_->circuit(), system_->node_to_row(), spec_, "CofactorEvaluator");
  in_pos_ = rows.in_pos;
  in_neg_ = rows.in_neg;
  out_pos_ = rows.out_pos;
  out_neg_ = rows.out_neg;
  injections_ = {{{in_pos_, 1.0}, {in_neg_, -1.0}}};
  std::vector<PatternStamp> stamps = system_->stamps();
  if (spec_.kind == TransferSpec::Kind::VoltageGain) {
    // Drive admittance across the input pair (see header), merged into the
    // structural pattern once: it scales exactly like any other element, so
    // per-sample assembly needs no special-casing.
    if (in_pos_ >= 0) stamps.push_back({in_pos_, in_pos_, drive_conductance_, drive_capacitance_});
    if (in_neg_ >= 0) stamps.push_back({in_neg_, in_neg_, drive_conductance_, drive_capacitance_});
    if (in_pos_ >= 0 && in_neg_ >= 0) {
      stamps.push_back({in_pos_, in_neg_, -drive_conductance_, -drive_capacitance_});
      stamps.push_back({in_neg_, in_pos_, -drive_conductance_, -drive_capacitance_});
    }
  }
  // Same merged structure (the parameter-sweep fast path): rewrite the base
  // values in place and keep the cached pattern AND the LU plan. A changed
  // structure rebuilds the pattern; the next replay then refuses and the
  // caller's factorization fallback repivots.
  if (!assembly_.rebind(system_->dim(), stamps)) {
    assembly_ = PatternedMatrix(system_->dim(), std::move(stamps));
  }
}

void CofactorEvaluator::rebind(const NodalSystem& system) {
  system_ = &system;
  bind_system();
}

CofactorEvaluator::Sample CofactorEvaluator::evaluate(std::complex<double> s_hat,
                                                      double f_scale, double g_scale) const {
  // Pattern-cached assembly (values rewritten in place), then the plan
  // replay or a fresh factorization that persists in lu_, so later points
  // (and batches) replay it.
  if (!lu_.replay_or_factor(assembly_.assemble(s_hat, f_scale, g_scale), &fresh_factors_)) {
    return Sample{};  // singular at this point; caller will retry/adjust
  }
  std::vector<std::complex<double>> rhs;
  sparse::solve_injected(lu_, injections_, rhs);
  return sample_from(sparse::ReplayedPoint(lu_, rhs));
}

std::vector<CofactorEvaluator::Sample> CofactorEvaluator::evaluate_batch(
    const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale,
    support::ThreadPool* pool) const {
  std::vector<Sample> samples(s_hats.size());
  if (s_hats.empty()) return samples;

  // Point 0 on the caller, with the member state: identical plan evolution
  // to a serial evaluate() loop at iteration granularity (a refused or
  // missing plan is refreshed here, once, for the whole batch).
  samples[0] = evaluate(s_hats[0], f_scale, g_scale);
  batched_lane_count_ += sparse::replay_points(
      assembly_, lu_, std::span(s_hats).subspan(1), f_scale, g_scale, injections_,
      &fresh_factors_, pool, {},
      [&](std::size_t i, const sparse::ReplayedPoint& point) {
        samples[i + 1] = sample_from(point);
      });
  return samples;
}

std::vector<CofactorEvaluator::Sample> CofactorEvaluator::evaluate_pinned_batch(
    const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale) const {
  std::vector<Sample> samples(s_hats.size());
  batched_lane_count_ += sparse::replay_points(
      assembly_, lu_, s_hats, f_scale, g_scale, injections_, &fresh_factors_, nullptr, {},
      [&](std::size_t i, const sparse::ReplayedPoint& point) { samples[i] = sample_from(point); });
  return samples;
}

CofactorEvaluator::Sample CofactorEvaluator::sample_from(const sparse::ReplayedPoint& point) const {
  if (!point.ok()) return Sample{};
  const std::complex<double> v_out = point.x(out_pos_) - point.x(out_neg_);
  const std::complex<double> v_in = point.x(in_pos_) - point.x(in_neg_);
  const double max_abs_v = point.max_abs_x();
  const double min_pivot = point.min_abs_pivot();
  const double max_entry = point.max_abs_entry();
  const numeric::ScaledComplex det = point.determinant();

  Sample sample;
  constexpr double kMachineEpsilon = 2.220446049250313e-16;
  const double det_error =
      std::max(min_pivot > 0.0 ? kMachineEpsilon * max_entry / min_pivot : kMachineEpsilon,
               kMachineEpsilon);

  sample.numerator = numeric::ScaledComplex(v_out) * det;
  sample.denominator = spec_.kind == TransferSpec::Kind::VoltageGain
                           ? numeric::ScaledComplex(v_in) * det
                           : det;

  // Solve error of a port voltage relative to the solution's largest entry:
  // the triangular solves carry absolute round-off ~ eps * max|V|, so a port
  // voltage far below that level has a large RELATIVE error even when the
  // determinant is accurate.
  auto port_error = [&](const std::complex<double>& port) {
    const double magnitude = sparse::replay_abs(port);
    if (magnitude == 0.0 || max_abs_v == 0.0) return det_error;
    return det_error + kMachineEpsilon * max_abs_v / magnitude;
  };
  sample.numerator_error = port_error(v_out);
  sample.denominator_error = spec_.kind == TransferSpec::Kind::VoltageGain
                                 ? port_error(v_in)
                                 : det_error;
  sample.ok = true;
  return sample;
}

}  // namespace symref::mna
