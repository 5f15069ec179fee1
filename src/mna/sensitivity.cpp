#include "mna/sensitivity.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "numeric/stats.h"
#include "sparse/lu.h"

namespace symref::mna {

namespace {

using Complex = std::complex<double>;
constexpr double kTwoPi = 6.283185307179586476925286766559;

int row_or_ground(const NodalSystem& system, const std::string& name) {
  const auto row = system.row_of_node(name);
  return row ? *row : -1;
}

Complex pick(const std::vector<Complex>& v, int row) {
  return row < 0 ? Complex(0.0, 0.0) : v[static_cast<std::size_t>(row)];
}

/// Everything a band sweep reuses across frequencies: the nodal system, the
/// pattern-cached direct and transposed assemblies, both factorization plans
/// and the per-element stamp rows (node-name lookups done once, not per
/// frequency point).
class AdjointContext {
 public:
  AdjointContext(const netlist::Circuit& canonical, const TransferSpec& spec)
      : spec_(spec), system_(canonical) {
    in_pos_ = row_or_ground(system_, spec.in_pos);
    in_neg_ = row_or_ground(system_, spec.in_neg);
    out_pos_ = row_or_ground(system_, spec.out_pos);
    out_neg_ = row_or_ground(system_, spec.out_neg);

    // Drive admittance across the input pair (same Sherman-Morrison trick as
    // CofactorEvaluator: keeps Y factorable when the input node only controls
    // sources, changes neither N, D nor their element derivatives).
    std::vector<sparse::PatternStamp> stamps = system_.stamps();
    const double g_typ_raw = numeric::geometric_mean(canonical.conductance_values());
    const double g_typ = g_typ_raw > 0.0 ? g_typ_raw : 1.0;
    if (in_pos_ >= 0) stamps.push_back({in_pos_, in_pos_, g_typ, 0.0});
    if (in_neg_ >= 0) stamps.push_back({in_neg_, in_neg_, g_typ, 0.0});
    if (in_pos_ >= 0 && in_neg_ >= 0) {
      stamps.push_back({in_pos_, in_neg_, -g_typ, 0.0});
      stamps.push_back({in_neg_, in_pos_, -g_typ, 0.0});
    }
    std::vector<sparse::PatternStamp> transposed = stamps;
    for (sparse::PatternStamp& stamp : transposed) std::swap(stamp.row, stamp.col);
    direct_ = sparse::PatternedMatrix(system_.dim(), std::move(stamps));
    transposed_ = sparse::PatternedMatrix(system_.dim(), std::move(transposed));

    // Stamp pattern per element: output row pair (a, b), controlling column
    // pair (c, d) — resolved from node names once.
    auto row_of = [&](int node) {
      if (node == 0) return -1;
      const auto row = system_.row_of_node(canonical.node_name(node));
      return row ? *row : -1;
    };
    element_rows_.reserve(canonical.element_count());
    for (const auto& e : canonical.elements()) {
      ElementRows rows;
      rows.element = &e;
      rows.a = row_of(e.node_pos);
      rows.b = row_of(e.node_neg);
      rows.c = rows.a;
      rows.d = rows.b;
      if (e.kind == netlist::ElementKind::Vccs) {
        rows.c = row_of(e.ctrl_pos);
        rows.d = row_of(e.ctrl_neg);
      }
      element_rows_.push_back(rows);
    }
  }

  std::vector<ElementSensitivity> at(double frequency_hz) {
    const Complex s(0.0, kTwoPi * frequency_hz);

    if (!lu_.replay_or_factor(direct_.assemble(s), nullptr)) {
      throw std::runtime_error("ac_sensitivities: singular system");
    }
    if (!lu_t_.replay_or_factor(transposed_.assemble(s), nullptr)) {
      throw std::runtime_error("ac_sensitivities: singular transposed system");
    }

    const int n = system_.dim();
    auto unit_pair = [&](int pos, int neg) {
      std::vector<Complex> v(static_cast<std::size_t>(n));
      if (pos >= 0) v[static_cast<std::size_t>(pos)] += 1.0;
      if (neg >= 0) v[static_cast<std::size_t>(neg)] -= 1.0;
      return v;
    };

    // v: response to the input injection. w_num/w_den: adjoints of the
    // output and input selectors.
    std::vector<Complex> v = unit_pair(in_pos_, in_neg_);
    lu_.solve(v);
    std::vector<Complex> w_num = unit_pair(out_pos_, out_neg_);
    lu_t_.solve(w_num);
    std::vector<Complex> w_den = unit_pair(in_pos_, in_neg_);
    lu_t_.solve(w_den);

    const bool voltage_gain = spec_.kind == TransferSpec::Kind::VoltageGain;
    const Complex numerator = pick(v, out_pos_) - pick(v, out_neg_);
    const Complex denominator =
        voltage_gain ? pick(v, in_pos_) - pick(v, in_neg_) : Complex(1.0, 0.0);
    if (numerator == Complex(0.0, 0.0) || denominator == Complex(0.0, 0.0)) {
      throw std::runtime_error("ac_sensitivities: transfer function is zero at this point");
    }

    std::vector<ElementSensitivity> result;
    result.reserve(element_rows_.size());
    for (const ElementRows& rows : element_rows_) {
      const auto& e = *rows.element;
      Complex admittance;
      switch (e.kind) {
        case netlist::ElementKind::Conductance:
        case netlist::ElementKind::Vccs:
          admittance = Complex(e.value, 0.0);
          break;
        case netlist::ElementKind::Capacitor:
          admittance = s * e.value;
          break;
        default:
          continue;  // unreachable for canonical circuits
      }
      const Complex v_ctrl = pick(v, rows.c) - pick(v, rows.d);
      // dN/dy = -(w_num_a - w_num_b)(v_c - v_d); same shape for D.
      const Complex dn = -(pick(w_num, rows.a) - pick(w_num, rows.b)) * v_ctrl;
      const Complex dd = voltage_gain
                             ? -(pick(w_den, rows.a) - pick(w_den, rows.b)) * v_ctrl
                             : Complex(0.0, 0.0);
      // y * dH/dy / H = y * (dN/N - dD/D).
      const Complex normalized = admittance * (dn / numerator - dd / denominator);
      result.push_back({e.name, normalized});
    }
    return result;
  }

 private:
  struct ElementRows {
    const netlist::Element* element = nullptr;
    int a = -1;
    int b = -1;
    int c = -1;
    int d = -1;
  };

  const TransferSpec& spec_;
  NodalSystem system_;
  int in_pos_ = -1;
  int in_neg_ = -1;
  int out_pos_ = -1;
  int out_neg_ = -1;
  sparse::PatternedMatrix direct_;
  sparse::PatternedMatrix transposed_;
  sparse::SparseLu lu_;
  sparse::SparseLu lu_t_;
  std::vector<ElementRows> element_rows_;
};

}  // namespace

std::vector<ElementSensitivity> ac_sensitivities(const netlist::Circuit& canonical,
                                                 const TransferSpec& spec,
                                                 double frequency_hz) {
  if (!netlist::is_canonical(canonical)) {
    throw std::invalid_argument("ac_sensitivities: circuit is not canonical");
  }
  AdjointContext context(canonical, spec);
  return context.at(frequency_hz);
}

std::vector<ElementSensitivity> band_sensitivities(const netlist::Circuit& canonical,
                                                   const TransferSpec& spec,
                                                   double f_start_hz, double f_stop_hz,
                                                   int points_per_decade) {
  if (!netlist::is_canonical(canonical)) {
    throw std::invalid_argument("band_sensitivities: circuit is not canonical");
  }
  const std::vector<double> grid =
      log_frequency_grid(f_start_hz, f_stop_hz, points_per_decade);
  AdjointContext context(canonical, spec);
  std::vector<ElementSensitivity> worst;
  for (const double f : grid) {
    const auto at_f = context.at(f);
    if (worst.empty()) {
      worst = at_f;
      continue;
    }
    for (std::size_t i = 0; i < worst.size(); ++i) {
      if (std::abs(at_f[i].normalized) > std::abs(worst[i].normalized)) {
        worst[i].normalized = at_f[i].normalized;
      }
    }
  }
  return worst;
}

}  // namespace symref::mna
