#include "mna/nodal.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "mna/assembler.h"
#include "mna/errors.h"
#include "netlist/canonical.h"
#include "numeric/stats.h"
#include "sparse/lu.h"
#include "support/thread_pool.h"

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

  // Merge the table's stamps position-wise so matrix() is a flat scan:
  // sorted by (row, col), each position summed in emission order from +0.0.
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

sparse::TripletMatrix NodalSystem::matrix(std::complex<double> s_hat, double f_scale,
                                          double g_scale) const {
  sparse::TripletMatrix mat(dim_);
  for (const PatternStamp& entry : entries_) {
    const std::complex<double> value =
        g_scale * entry.conductance + s_hat * (f_scale * entry.capacitance);
    if (value != std::complex<double>()) mat.add(entry.row, entry.col, value);
  }
  return mat;
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
  auto resolve = [&](const std::string& name, const char* what) -> int {
    const auto node = system_->circuit().find_node(name);
    if (!node) {
      throw SpecError("CofactorEvaluator: unknown " + std::string(what) + " node '" + name +
                      "'");
    }
    if (*node == 0) return -1;
    const auto row = system_->row_of_node(name);
    if (!row) {
      throw SpecError("CofactorEvaluator: " + std::string(what) + " node '" + name +
                      "' is floating");
    }
    return *row;
  };
  in_pos_ = resolve(spec_.in_pos, "input+");
  in_neg_ = resolve(spec_.in_neg, "input-");
  out_pos_ = resolve(spec_.out_pos, "output+");
  out_neg_ = resolve(spec_.out_neg, "output-");
  if (in_pos_ == in_neg_) {
    throw SpecError("CofactorEvaluator: input pair is degenerate");
  }
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
  // Pattern-cached assembly (values rewritten in place), then static-pivot
  // refactorization (same pattern across points); fall back to a full
  // Markowitz factorization when the reused pivots degrade. The fallback
  // persists its plan in lu_, so later points (and batches) replay it.
  const sparse::CompressedMatrix& compressed = assembly_.assemble(s_hat, f_scale, g_scale);
  if (!lu_.refactor(compressed)) {
    ++fresh_factor_count_;
    bool degraded = false;
    if (!factor_with_ladder(lu_, compressed, &degraded)) {
      return Sample{};  // singular at this point; caller will retry/adjust
    }
    if (degraded) ++pivot_escalation_count_;
    // The persisted plan inherits the escalation: replays of a degraded
    // plan are flagged too (plan_degraded_ clears when a default-threshold
    // factorization re-establishes a healthy plan).
    plan_degraded_ = degraded;
  }
  std::vector<std::complex<double>> rhs;
  Sample sample = finish_sample(lu_, rhs);
  sample.degraded = plan_degraded_;
  return sample;
}

CofactorEvaluator::Sample CofactorEvaluator::evaluate_pinned(std::complex<double> s_hat,
                                                             double f_scale,
                                                             double g_scale) const {
  const sparse::CompressedMatrix& compressed = assembly_.assemble(s_hat, f_scale, g_scale);
  std::vector<std::complex<double>> rhs;
  if (lu_.refactor(compressed)) {
    Sample sample = finish_sample(lu_, rhs);
    sample.degraded = plan_degraded_;
    return sample;
  }
  // Refused replay: leave the member plan pinned for the next point/sample.
  return fresh_sample(compressed, rhs, /*count=*/true);
}

CofactorEvaluator::Sample CofactorEvaluator::evaluate_in(EvalContext& context,
                                                         std::complex<double> s_hat,
                                                         double f_scale, double g_scale) const {
  const sparse::CompressedMatrix& compressed =
      context.assembly.assemble(s_hat, f_scale, g_scale);
  if (context.lu.refactor(compressed)) {
    // The context's lu shares the member's symbolic plan, so the member's
    // degraded flag applies to this replay too (it is stable for the
    // duration of a batch — only evaluate() on the caller thread writes it).
    Sample sample = finish_sample(context.lu, context.rhs);
    sample.degraded = plan_degraded_;
    return sample;
  }
  // Degraded replay: the context's baseline plan stays untouched, so the
  // next point in the chunk sees exactly what it would see in any other
  // evaluation order. (No counter is bumped here — lanes share this const
  // instance — but the sample still carries the degraded flag.)
  return fresh_sample(compressed, context.rhs, /*count=*/false);
}

CofactorEvaluator::Sample CofactorEvaluator::fresh_sample(
    const sparse::CompressedMatrix& matrix, std::vector<std::complex<double>>& rhs,
    bool count) const {
  if (count) ++fresh_factor_count_;
  sparse::SparseLu fresh;
  bool degraded = false;
  if (!factor_with_ladder(fresh, matrix, &degraded)) return Sample{};
  if (count && degraded) ++pivot_escalation_count_;
  Sample sample = finish_sample(fresh, rhs);
  sample.degraded = degraded;
  return sample;
}

bool CofactorEvaluator::factor_with_ladder(sparse::SparseLu& lu,
                                           const sparse::CompressedMatrix& matrix,
                                           bool* degraded) {
  *degraded = false;
  if (lu.factor(matrix)) return true;
  // Escalation: each level trades pivot quality for factorability. The
  // levels are fixed (not adaptive), so a given matrix always lands on the
  // same level — escalated results stay deterministic.
  static constexpr double kEscalationThresholds[] = {1e-6, 0.0};
  for (const double threshold : kEscalationThresholds) {
    sparse::SparseLuOptions relaxed;
    relaxed.pivot_threshold = threshold;
    relaxed.singularity_tolerance = 0.0;
    if (lu.factor(matrix, relaxed)) {
      *degraded = true;
      return true;
    }
  }
  return false;  // no nonzero pivot at any threshold: truly singular
}

void CofactorEvaluator::evaluate_group_batched(BatchContext& context,
                                               const std::complex<double>* s_hats, int count,
                                               double f_scale, double g_scale,
                                               bool count_fallbacks, Sample* out) const {
  const int width = context.replay.width();
  const std::size_t stride = static_cast<std::size_t>(width);
  context.replay.replay(count, context.assembly.lane_assembly(s_hats, f_scale, g_scale));

  // Batched cofactor solve: the unit injection at the input pair is the
  // same for every lane.
  const int n = system_->dim();
  context.soa_rhs.assign(static_cast<std::size_t>(n) * stride, std::complex<double>());
  for (int l = 0; l < count; ++l) {
    if (in_pos_ >= 0) {
      context.soa_rhs[static_cast<std::size_t>(in_pos_) * stride + static_cast<std::size_t>(l)] +=
          1.0;
    }
    if (in_neg_ >= 0) {
      context.soa_rhs[static_cast<std::size_t>(in_neg_) * stride + static_cast<std::size_t>(l)] -=
          1.0;
    }
  }
  context.replay.solve(context.soa_rhs, count);

  // Per-lane solution reductions in lane-inner passes over the SoA
  // solution: max |V_r|^2 (rooted once per lane — bitwise equal to the
  // scalar max-of-replay_abs scan since sqrt is monotone) and the smallest
  // pivot magnitude. Port voltages are direct SoA lookups; nothing is
  // gathered into a per-lane scratch vector.
  context.max_norm.assign(stride, 0.0);
  for (int r = 0; r < n; ++r) {
    const std::complex<double>* row = context.soa_rhs.data() + static_cast<std::size_t>(r) * stride;
    for (int l = 0; l < count; ++l) {
      const double re = row[static_cast<std::size_t>(l)].real();
      const double im = row[static_cast<std::size_t>(l)].imag();
      context.max_norm[static_cast<std::size_t>(l)] =
          std::max(context.max_norm[static_cast<std::size_t>(l)], re * re + im * im);
    }
  }
  context.min_pivots.resize(stride);
  context.replay.min_abs_pivots(context.min_pivots.data(), count);
  context.dets.resize(stride);
  context.replay.determinants(context.dets.data(), count);
  auto lane_voltage = [&](int row, int lane) -> std::complex<double> {
    return row < 0 ? std::complex<double>(0.0, 0.0)
                   : context.soa_rhs[static_cast<std::size_t>(row) * stride +
                                     static_cast<std::size_t>(lane)];
  };

  for (int l = 0; l < count; ++l) {
    if (context.replay.lane_ok(l)) {
      const std::complex<double> v_out = lane_voltage(out_pos_, l) - lane_voltage(out_neg_, l);
      const std::complex<double> v_in = lane_voltage(in_pos_, l) - lane_voltage(in_neg_, l);
      out[l] = sample_from_ports(context.dets[static_cast<std::size_t>(l)],
                                 context.min_pivots[static_cast<std::size_t>(l)],
                                 context.replay.max_abs_entry(l), v_out, v_in,
                                 std::sqrt(context.max_norm[static_cast<std::size_t>(l)]));
      out[l].degraded = plan_degraded_;
      continue;
    }
    // Refused lane: the batched mirror of the scalar replay-refusal branch,
    // leaving the baseline plan (and the other lanes) untouched.
    out[l] = fresh_sample(context.assembly.assemble(s_hats[l], f_scale, g_scale), context.rhs,
                          count_fallbacks);
  }
}

std::vector<CofactorEvaluator::Sample> CofactorEvaluator::evaluate_batch(
    const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale,
    support::ThreadPool* pool, int batch_width) const {
  std::vector<Sample> samples(s_hats.size());
  if (s_hats.empty()) return samples;

  // Point 0 on the caller, with the member state: identical plan evolution
  // to a serial evaluate() loop at iteration granularity (a degraded or
  // missing plan is refreshed here, once, for the whole batch).
  samples[0] = evaluate(s_hats[0], f_scale, g_scale);
  if (s_hats.size() == 1) return samples;

  const int lanes = pool != nullptr ? pool->size() : 1;

  // The batched kernel needs a structurally replayable baseline plan; when
  // point 0 left none (singular, or the pattern changed), the whole batch
  // runs the scalar path below — which is bit-identical anyway.
  if (sparse::use_batched_replay(lu_.plan().get(), assembly_.matrix())) {
    const auto plan = lu_.plan();
    const int width = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(batch_width), s_hats.size() - 1));
    std::vector<std::unique_ptr<BatchContext>> contexts(static_cast<std::size_t>(lanes));
    auto body = [&](std::size_t begin, std::size_t end, int lane) {
      std::unique_ptr<BatchContext>& slot = contexts[static_cast<std::size_t>(lane)];
      if (!slot) {
        slot = std::make_unique<BatchContext>();
        slot->assembly = assembly_;
        slot->replay.bind(plan, width);
      }
      // SoA groups of at most `width` points. Each lane's per-point
      // operation sequence is independent of the grouping, so the chunk
      // boundaries (and hence the thread count) never change the results.
      for (std::size_t at = begin; at < end; at += static_cast<std::size_t>(width)) {
        const int count = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(width), end - at));
        evaluate_group_batched(*slot, s_hats.data() + at + 1, count, f_scale, g_scale,
                               /*count_fallbacks=*/false, samples.data() + at + 1);
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(s_hats.size() - 1, body);
    } else {
      body(0, s_hats.size() - 1, 0);
    }
    batched_lane_count_ += s_hats.size() - 1;
    return samples;
  }

  // One context slot per pool lane, cloned lazily on the lane's first chunk
  // (a slot is only ever touched by its own lane): a wide pool driving a
  // short batch does not pay for clones that never receive work. Each clone
  // copies the value arrays and the numeric LU workspace; the symbolic plan
  // inside lu_ is shared read-only across all lanes.
  std::vector<std::unique_ptr<EvalContext>> contexts(static_cast<std::size_t>(lanes));

  // Per-point contract even when point 0 was singular (no baseline plan):
  // evaluate_in then skips the replay and runs a fresh throwaway
  // factorization per point, which depends only on the point's values —
  // still deterministic at any thread count, and healthy points succeed.
  auto body = [&](std::size_t begin, std::size_t end, int lane) {
    std::unique_ptr<EvalContext>& slot = contexts[static_cast<std::size_t>(lane)];
    if (!slot) slot = std::make_unique<EvalContext>(EvalContext{assembly_, lu_, {}});
    for (std::size_t i = begin; i < end; ++i) {
      samples[i + 1] = evaluate_in(*slot, s_hats[i + 1], f_scale, g_scale);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(s_hats.size() - 1, body);
  } else {
    body(0, s_hats.size() - 1, 0);
  }
  return samples;
}

std::vector<CofactorEvaluator::Sample> CofactorEvaluator::evaluate_pinned_batch(
    const std::vector<std::complex<double>>& s_hats, double f_scale, double g_scale,
    int batch_width) const {
  std::vector<Sample> samples(s_hats.size());
  if (s_hats.empty()) return samples;

  // The scalar loop doubles as the fallback when the pinned plan is missing
  // or structurally stale: evaluate_pinned's refusal branch then reproduces
  // the exact counter increments the batched path would have produced.
  if (!sparse::use_batched_replay(lu_.plan().get(), assembly_.matrix())) {
    for (std::size_t i = 0; i < s_hats.size(); ++i) {
      samples[i] = evaluate_pinned(s_hats[i], f_scale, g_scale);
    }
    return samples;
  }

  BatchContext context;
  context.assembly = assembly_;
  const int width = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(batch_width), s_hats.size()));
  context.replay.bind(lu_.plan(), width);
  for (std::size_t at = 0; at < s_hats.size(); at += static_cast<std::size_t>(width)) {
    const int count = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(width), s_hats.size() - at));
    evaluate_group_batched(context, s_hats.data() + at, count, f_scale, g_scale,
                           /*count_fallbacks=*/true, samples.data() + at);
  }
  batched_lane_count_ += s_hats.size();
  return samples;
}

CofactorEvaluator::Sample CofactorEvaluator::finish_sample(
    const sparse::SparseLu& lu, std::vector<std::complex<double>>& rhs) const {
  rhs.assign(static_cast<std::size_t>(system_->dim()), std::complex<double>());
  if (in_pos_ >= 0) rhs[static_cast<std::size_t>(in_pos_)] += 1.0;
  if (in_neg_ >= 0) rhs[static_cast<std::size_t>(in_neg_)] -= 1.0;
  lu.solve(rhs);
  return sample_from_solution(lu.determinant(), lu.min_abs_pivot(), lu.max_abs_entry(), rhs);
}

CofactorEvaluator::Sample CofactorEvaluator::sample_from_solution(
    const numeric::ScaledComplex& det, double min_pivot, double max_entry,
    const std::vector<std::complex<double>>& rhs) const {
  auto voltage = [&](int row) -> std::complex<double> {
    return row < 0 ? std::complex<double>(0.0, 0.0) : rhs[static_cast<std::size_t>(row)];
  };
  const std::complex<double> v_out = voltage(out_pos_) - voltage(out_neg_);
  const std::complex<double> v_in = voltage(in_pos_) - voltage(in_neg_);

  // Scanning squared magnitudes and taking one sqrt at the end is bitwise
  // equal to max over sparse::replay_abs (sqrt is monotone), and keeps the
  // per-sample cost off the replay kernels' critical path.
  double max_norm_v = 0.0;
  for (const std::complex<double>& value : rhs) {
    const double norm = value.real() * value.real() + value.imag() * value.imag();
    max_norm_v = std::max(max_norm_v, norm);
  }
  return sample_from_ports(det, min_pivot, max_entry, v_out, v_in, std::sqrt(max_norm_v));
}

CofactorEvaluator::Sample CofactorEvaluator::sample_from_ports(
    const numeric::ScaledComplex& det, double min_pivot, double max_entry,
    std::complex<double> v_out, std::complex<double> v_in, double max_abs_v) const {
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
