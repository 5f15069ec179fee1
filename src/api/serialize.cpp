#include "api/serialize.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace symref::api {

namespace {

/// Hex-float rendering of a double: bit-exact and inf/nan-capable.
std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

Json scaled_to_json(const numeric::ScaledDouble& value) {
  Json out = Json::object();
  out.set("mantissa", hex_double(value.mantissa()));
  out.set("exp2", static_cast<double>(value.exponent2()));
  // Convenience double for consumers that do not need the extended range;
  // null when the value over/underflows IEEE double (saturated to_double()
  // would be misleading, and JSON cannot carry the inf anyway).
  const double approx = value.to_double();
  if (std::isfinite(approx) && (approx != 0.0 || value.is_zero())) {
    out.set("approx", approx);
  } else {
    out.set("approx", nullptr);
  }
  return out;
}

Json complex_to_json(std::complex<double> value) {
  Json out = Json::object();
  out.set("real", value.real());
  out.set("imag", value.imag());
  return out;
}

Json polynomial_to_json(const refgen::PolynomialReference& poly) {
  Json coefficients = Json::array();
  for (int i = 0; i <= poly.order_bound(); ++i) {
    const refgen::Coefficient& c = poly.at(i);
    Json entry = Json::object();
    entry.set("index", i);
    entry.set("value", scaled_to_json(c.value));
    entry.set("status", refgen::coefficient_status_name(c.status));
    entry.set("accuracy", c.relative_accuracy);
    coefficients.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("order_bound", poly.order_bound());
  out.set("effective_order", poly.effective_order());
  out.set("complete", poly.complete());
  out.set("coefficients", std::move(coefficients));
  return out;
}

/// Shared response header. Success payloads append their fields after it.
Json envelope(const char* type, const Status& status) {
  Json out = Json::object();
  out.set("type", type);
  out.set("status", to_json(status));
  return out;
}

// --- Strict decoding helpers ------------------------------------------------

/// Verifies every member of `json` is in the allowed list.
Status check_keys(const Json& json, std::initializer_list<const char*> allowed,
                  const char* what) {
  if (!json.is_object()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": expected a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::error(StatusCode::kInvalidArgument,
                           std::string(what) + ": unknown key \"" + key + "\"");
    }
  }
  return Status();
}

Status read_string(const Json& json, const char* key, bool required, std::string* out,
                   const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) {
    if (!required) return Status();
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": missing required key \"" + key + "\"");
  }
  if (!value->is_string()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a string");
  }
  *out = value->as_string();
  return Status();
}

Status read_number(const Json& json, const char* key, double* out, const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) return Status();
  if (!value->is_number()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a number");
  }
  *out = value->as_number();
  return Status();
}

/// read_number that treats an absent key as an error — for fields where a
/// silent default would change the study (sweep ranges, nominals).
Status read_required_number(const Json& json, const char* key, double* out,
                            const char* what) {
  if (json.find(key) == nullptr) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": missing required key \"" + key + "\"");
  }
  return read_number(json, key, out, what);
}

Status read_int(const Json& json, const char* key, int* out, const char* what) {
  double value = *out;
  const Status status = read_number(json, key, &value, what);
  if (!status.ok()) return status;
  // Reject rather than cast out-of-range doubles: the cast would be UB,
  // and these fields come from untrusted request files.
  if (!(value >= static_cast<double>(INT_MIN) && value <= static_cast<double>(INT_MAX)) ||
      value != static_cast<double>(static_cast<int>(value))) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be an integer");
  }
  *out = static_cast<int>(value);
  return Status();
}

Status read_bool(const Json& json, const char* key, bool* out, const char* what) {
  const Json* value = json.find(key);
  if (value == nullptr) return Status();
  if (!value->is_bool()) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": \"" + key + "\" must be a boolean");
  }
  *out = value->as_bool();
  return Status();
}

/// Required "spec" member.
Status read_spec(const Json& json, mna::TransferSpec* out, const char* what) {
  const Json* spec = json.find("spec");
  if (spec == nullptr) {
    return Status::error(StatusCode::kInvalidArgument,
                         std::string(what) + ": missing required key \"spec\"");
  }
  Result<mna::TransferSpec> parsed = spec_from_json(*spec);
  if (!parsed.ok()) return parsed.status();
  *out = parsed.take();
  return Status();
}

/// Optional "options" member (engine defaults when absent).
Status read_options(const Json& json, refgen::AdaptiveOptions* out) {
  const Json* options = json.find("options");
  if (options == nullptr) return Status();
  Result<refgen::AdaptiveOptions> parsed = options_from_json(*options);
  if (!parsed.ok()) return parsed.status();
  *out = parsed.take();
  return Status();
}

}  // namespace

Json to_json(const Status& status) {
  Json out = Json::object();
  out.set("code", status_code_name(status.code()));
  if (!status.message().empty()) out.set("message", status.message());
  if (status.location().known()) {
    out.set("line", status.location().line);
    if (status.location().column > 0) out.set("column", status.location().column);
  }
  return out;
}

Json to_json(const mna::TransferSpec& spec) {
  Json out = Json::object();
  out.set("kind", spec.kind == mna::TransferSpec::Kind::VoltageGain ? "voltage_gain"
                                                                    : "transimpedance");
  out.set("in", spec.in_pos);
  out.set("in_neg", spec.in_neg);
  out.set("out", spec.out_pos);
  out.set("out_neg", spec.out_neg);
  return out;
}

Json to_json(const refgen::AdaptiveOptions& options) {
  Json out = Json::object();
  out.set("sigma", options.sigma);
  out.set("noise_decades", options.noise_decades);
  out.set("tuning_r", options.tuning_r);
  out.set("max_iterations", options.max_iterations);
  out.set("use_deflation", options.use_deflation);
  out.set("conjugate_symmetry", options.conjugate_symmetry);
  out.set("simultaneous_scaling", options.simultaneous_scaling);
  out.set("geometric_mean_heuristic", options.geometric_mean_heuristic);
  out.set("initial_f", options.initial_f);
  out.set("initial_g", options.initial_g);
  out.set("no_progress_limit", options.no_progress_limit);
  out.set("threads", options.threads);
  return out;
}

Json to_json(const refgen::NumericalReference& reference) {
  Json out = Json::object();
  out.set("numerator", polynomial_to_json(reference.numerator()));
  out.set("denominator", polynomial_to_json(reference.denominator()));
  return out;
}

Json to_json(const RefgenResponse& response) {
  Json out = envelope("refgen", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  out.set("termination", response.result.termination);
  out.set("complete", response.result.complete);
  out.set("iterations", static_cast<double>(response.result.iterations.size()));
  out.set("total_evaluations", response.result.total_evaluations);
  out.set("engine_seconds", response.result.seconds);
  out.set("numerator_degree", response.result.numerator_degree);
  out.set("denominator_degree", response.result.denominator_degree);
  out.set("degraded", response.result.degraded);
  out.set("degraded_points", static_cast<double>(response.result.degraded_points));
  out.set("reference", to_json(response.result.reference));
  return out;
}

Json to_json(const OpResponse& response) {
  Json out = envelope("op", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  const dc::OpResult& result = response.result;
  Json nodes = Json::array();
  for (std::size_t i = 0; i < result.node_names.size(); ++i) {
    Json entry = Json::object();
    entry.set("name", result.node_names[i]);
    // Hex floats: the 1-vs-N-thread byte-compare of the CLI smoke rides on
    // bit-exactness, like the reference coefficients.
    entry.set("v", hex_double(result.node_voltages[i]));
    entry.set("volts", result.node_voltages[i]);
    nodes.push_back(std::move(entry));
  }
  out.set("nodes", std::move(nodes));
  Json branches = Json::array();
  for (std::size_t i = 0; i < result.branch_names.size(); ++i) {
    Json entry = Json::object();
    entry.set("name", result.branch_names[i]);
    entry.set("i", hex_double(result.branch_currents[i]));
    entry.set("amps", result.branch_currents[i]);
    branches.push_back(std::move(entry));
  }
  out.set("branches", std::move(branches));
  Json devices = Json::array();
  for (const dc::OpDeviceInfo& device : result.devices) {
    Json entry = Json::object();
    entry.set("name", device.name);
    entry.set("kind", device.kind);
    Json values = Json::object();
    for (const auto& [key, value] : device.values) values.set(key, hex_double(value));
    entry.set("values", std::move(values));
    devices.push_back(std::move(entry));
  }
  out.set("devices", std::move(devices));
  out.set("newton_iterations", result.newton_iterations);
  out.set("gmin_steps", result.gmin_steps);
  out.set("source_steps", result.source_steps);
  out.set("fresh_factorizations", static_cast<double>(result.fresh_factorizations));
  out.set("pivot_escalations", static_cast<double>(result.pivot_escalations));
  out.set("degraded", result.degraded);
  out.set("max_residual", hex_double(result.max_residual));
  out.set("engine_seconds", result.seconds);
  return out;
}

Json to_json(const SweepResponse& response) {
  Json out = envelope("sweep", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  Json points = Json::array();
  for (const mna::BodePoint& point : response.points) {
    Json entry = Json::object();
    entry.set("frequency_hz", point.frequency_hz);
    entry.set("real", point.value.real());
    entry.set("imag", point.value.imag());
    entry.set("magnitude_db", point.magnitude_db);
    entry.set("phase_deg", point.phase_deg);
    points.push_back(std::move(entry));
  }
  out.set("points", std::move(points));
  return out;
}

Json to_json(const PolesZerosResponse& response) {
  Json out = envelope("poles_zeros", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  Json poles = Json::array();
  for (const auto& pole : response.poles) poles.push_back(complex_to_json(pole));
  Json zeros = Json::array();
  for (const auto& zero : response.zeros) zeros.push_back(complex_to_json(zero));
  out.set("poles", std::move(poles));
  out.set("zeros", std::move(zeros));
  out.set("poles_converged", response.poles_converged);
  out.set("zeros_converged", response.zeros_converged);
  return out;
}

Json to_json(const BatchResponse& response) {
  Json out = envelope("batch", Status());
  out.set("seconds", response.seconds);
  Json items = Json::array();
  for (const BatchItemResponse& item : response.items) {
    items.push_back(item.status.ok() ? to_json(item.response)
                                     : error_response("refgen", item.status));
  }
  out.set("items", std::move(items));
  return out;
}

Json to_json(const ParamSweepResponse& response) {
  Json out = envelope("param_sweep", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  const mna::ParamSweepResult& result = response.result;
  Json names = Json::array();
  for (const std::string& name : result.names) names.push_back(name);
  out.set("names", std::move(names));
  Json frequencies = Json::array();
  for (const double f : result.frequencies_hz) frequencies.push_back(f);
  out.set("frequencies_hz", std::move(frequencies));
  out.set("fresh_factorizations", static_cast<double>(result.fresh_factorizations));
  out.set("op_solves", static_cast<double>(result.op_solves));
  out.set("newton_iterations", static_cast<double>(result.newton_iterations));
  out.set("engine_seconds", result.seconds);

  const std::size_t width = result.names.size();
  const std::size_t points = result.frequencies_hz.size();
  Json samples = Json::array();
  const std::size_t count = width == 0 ? 0 : result.values.size() / width;
  for (std::size_t i = 0; i < count; ++i) {
    Json sample = Json::object();
    Json values = Json::array();
    for (std::size_t j = 0; j < width; ++j) values.push_back(result.values[i * width + j]);
    sample.set("values", std::move(values));
    sample.set("ok", i < result.ok.size() && result.ok[i] != 0);
    Json points_json = Json::array();
    for (std::size_t k = 0; k < points; ++k) {
      const std::complex<double> h = result.response[i * points + k];
      Json point = Json::object();
      // Hex floats: bit-exact across the wire (and hex "nan" for the
      // points of a failed sample), like the reference coefficients.
      point.set("real", hex_double(h.real()));
      point.set("imag", hex_double(h.imag()));
      point.set("magnitude_db", mna::magnitude_db(h));
      points_json.push_back(std::move(point));
    }
    sample.set("response", std::move(points_json));
    samples.push_back(std::move(sample));
  }
  out.set("samples", std::move(samples));
  return out;
}

Json to_json(const TransientResponse& response) {
  Json out = envelope("transient", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  const transient::TransientResult& result = response.result;
  out.set("steps", result.steps);
  out.set("lte_rejections", result.lte_rejections);
  out.set("newton_iterations", result.newton_iterations);
  out.set("step_size_buckets", result.step_size_buckets);
  out.set("fresh_factorizations", static_cast<double>(result.fresh_factorizations));
  out.set("pivot_escalations", static_cast<double>(result.pivot_escalations));
  out.set("degraded", result.degraded);
  out.set("engine_seconds", result.seconds);
  Json nodes = Json::array();
  for (const std::string& name : result.node_names) nodes.push_back(name);
  out.set("nodes", std::move(nodes));
  Json branches = Json::array();
  for (const std::string& name : result.branch_names) branches.push_back(name);
  out.set("branches", std::move(branches));
  Json points = Json::array();
  for (std::size_t k = 0; k < result.times.size(); ++k) {
    Json point = Json::object();
    // Hex floats: the 1-vs-N-thread and daemon-vs-CLI byte-compares ride on
    // bit-exactness; "time" is the plot-friendly approximation.
    point.set("t", hex_double(result.times[k]));
    point.set("time", result.times[k]);
    Json values = Json::array();
    for (const double x : result.states[k]) values.push_back(hex_double(x));
    point.set("v", std::move(values));
    points.push_back(std::move(point));
  }
  out.set("points", std::move(points));
  return out;
}

namespace {

Json simplified_terms_to_json(const std::vector<refgen::SimplifiedTerm>& terms) {
  Json out = Json::array();
  for (const refgen::SimplifiedTerm& term : terms) {
    Json entry = Json::object();
    entry.set("coefficient", term.coefficient);
    Json symbols = Json::array();
    for (const std::string& symbol : term.symbols) symbols.push_back(symbol);
    entry.set("symbols", std::move(symbols));
    entry.set("s_power", term.s_power);
    entry.set("value", scaled_to_json(term.value));
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

Json to_json(const SimplifyResponse& response) {
  Json out = envelope("simplify", Status());
  out.set("from_cache", response.from_cache);
  out.set("seconds", response.seconds);
  const refgen::SimplifyResult& result = response.result;
  out.set("engine_seconds", result.seconds);
  out.set("reduced_dim", result.reduced_dim);
  out.set("reduced_elements", static_cast<double>(result.reduced_elements));
  out.set("original_elements", static_cast<double>(result.original_elements));
  out.set("enumerated_terms", static_cast<double>(result.enumerated_terms));
  out.set("kept_terms", static_cast<double>(result.kept_terms));
  out.set("terms_dropped", static_cast<double>(result.terms_dropped));
  out.set("term_evals", static_cast<double>(result.term_evals));
  out.set("ranking_fresh_factorizations",
          static_cast<double>(result.ranking_fresh_factorizations));
  Json actions = Json::array();
  for (const refgen::SimplifyPruneAction& action : result.prune_actions) {
    Json entry = Json::object();
    entry.set("element", action.element);
    entry.set("op", action.op);
    entry.set("error_after", action.error_after);
    actions.push_back(std::move(entry));
  }
  out.set("prune_actions", std::move(actions));
  Json certificate = Json::object();
  certificate.set("error_budget", result.certificate.error_budget);
  certificate.set("max_relative_error", hex_double(result.certificate.max_relative_error));
  Json points = Json::array();
  for (std::size_t i = 0; i < result.certificate.frequencies_hz.size(); ++i) {
    Json point = Json::object();
    point.set("frequency_hz", result.certificate.frequencies_hz[i]);
    // Hex floats: the daemon-vs-CLI byte-compare rides on bit-exactness.
    point.set("relative_error", hex_double(result.certificate.relative_error[i]));
    points.push_back(std::move(point));
  }
  certificate.set("points", std::move(points));
  out.set("certificate", std::move(certificate));
  out.set("numerator_expression", result.numerator_expression);
  out.set("denominator_expression", result.denominator_expression);
  out.set("numerator_terms", simplified_terms_to_json(result.numerator_terms));
  out.set("denominator_terms", simplified_terms_to_json(result.denominator_terms));
  return out;
}

Json error_response(const char* type, const Status& status) {
  return envelope(type, status);
}

Result<mna::TransferSpec> spec_from_json(const Json& json) {
  constexpr const char* kWhat = "spec";
  Status status = check_keys(json, {"kind", "in", "in_neg", "out", "out_neg"}, kWhat);
  if (!status.ok()) return status;

  mna::TransferSpec spec;
  std::string kind = "voltage_gain";
  if (!(status = read_string(json, "kind", false, &kind, kWhat)).ok()) return status;
  if (kind == "voltage_gain") {
    spec.kind = mna::TransferSpec::Kind::VoltageGain;
  } else if (kind == "transimpedance") {
    spec.kind = mna::TransferSpec::Kind::Transimpedance;
  } else {
    return Status::error(StatusCode::kInvalidArgument,
                         "spec: unknown kind \"" + kind +
                             "\" (expected voltage_gain or transimpedance)");
  }
  if (!(status = read_string(json, "in", true, &spec.in_pos, kWhat)).ok()) return status;
  if (!(status = read_string(json, "out", true, &spec.out_pos, kWhat)).ok()) return status;
  if (!(status = read_string(json, "in_neg", false, &spec.in_neg, kWhat)).ok()) return status;
  if (!(status = read_string(json, "out_neg", false, &spec.out_neg, kWhat)).ok()) return status;
  return spec;
}

Result<refgen::AdaptiveOptions> options_from_json(const Json& json) {
  constexpr const char* kWhat = "options";
  // "kernel" is legacy: accepted and ignored (see request_from_json).
  Status status = check_keys(json,
                             {"sigma", "noise_decades", "tuning_r", "max_iterations",
                              "use_deflation", "conjugate_symmetry", "simultaneous_scaling",
                              "geometric_mean_heuristic", "initial_f", "initial_g",
                              "no_progress_limit", "threads", "kernel"},
                             kWhat);
  if (!status.ok()) return status;

  refgen::AdaptiveOptions options;
  if (!(status = read_int(json, "sigma", &options.sigma, kWhat)).ok()) return status;
  if (!(status = read_number(json, "noise_decades", &options.noise_decades, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_number(json, "tuning_r", &options.tuning_r, kWhat)).ok()) return status;
  if (!(status = read_int(json, "max_iterations", &options.max_iterations, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_bool(json, "use_deflation", &options.use_deflation, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_bool(json, "conjugate_symmetry", &options.conjugate_symmetry, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_bool(json, "simultaneous_scaling", &options.simultaneous_scaling, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_bool(json, "geometric_mean_heuristic",
                           &options.geometric_mean_heuristic, kWhat))
           .ok()) {
    return status;
  }
  if (!(status = read_number(json, "initial_f", &options.initial_f, kWhat)).ok()) return status;
  if (!(status = read_number(json, "initial_g", &options.initial_g, kWhat)).ok()) return status;
  if (!(status = read_int(json, "no_progress_limit", &options.no_progress_limit, kWhat)).ok()) {
    return status;
  }
  if (!(status = read_int(json, "threads", &options.threads, kWhat)).ok()) return status;
  return options;
}

const char* request_type_name(AnyRequest::Type type) noexcept {
  switch (type) {
    case AnyRequest::Type::kRefgen: return "refgen";
    case AnyRequest::Type::kSweep: return "sweep";
    case AnyRequest::Type::kPolesZeros: return "poles_zeros";
    case AnyRequest::Type::kBatch: return "batch";
    case AnyRequest::Type::kParamSweep: return "param_sweep";
    case AnyRequest::Type::kSimplify: return "simplify";
    case AnyRequest::Type::kOp: return "op";
    case AnyRequest::Type::kTransient: return "transient";
  }
  return "refgen";
}

namespace {

Json typed(AnyRequest::Type type) {
  Json out = Json::object();
  out.set("type", request_type_name(type));
  return out;
}

/// The members of a refgen-shaped request: refgen, poles_zeros, batch item.
Json refgen_members(Json out, const mna::TransferSpec& spec,
                    const refgen::AdaptiveOptions& options, bool auto_linearize) {
  out.set("spec", to_json(spec));
  out.set("options", to_json(options));
  out.set("auto_linearize", auto_linearize);
  return out;
}

/// Deep copy minus every "threads" member.
Json strip_execution_knobs(const Json& value) {
  if (value.is_object()) {
    Json out = Json::object();
    for (const auto& [key, member] : value.members()) {
      if (key != "threads") out.set(key, strip_execution_knobs(member));
    }
    return out;
  }
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& item : value.items()) out.push_back(strip_execution_knobs(item));
    return out;
  }
  // dump() writes every non-finite number as null; spell them out so that
  // inf, -inf and nan keep distinct keys.
  if (value.is_number() && !std::isfinite(value.as_number())) {
    return hex_double(value.as_number());
  }
  return value;
}

}  // namespace

Json to_json(const RefgenRequest& request) {
  return refgen_members(typed(AnyRequest::Type::kRefgen), request.spec, request.options,
                        request.auto_linearize);
}

Json to_json(const PolesZerosRequest& request) {
  return refgen_members(typed(AnyRequest::Type::kPolesZeros), request.spec, request.options,
                        request.auto_linearize);
}

Json to_json(const OpRequest& /*request*/) { return typed(AnyRequest::Type::kOp); }

Json to_json(const TransientRequest& request) {
  Json out = typed(AnyRequest::Type::kTransient);
  out.set("tstop", request.tstop);
  out.set("tstep", request.tstep);
  out.set("method", transient::method_name(request.method));
  out.set("adaptive", request.adaptive);
  return out;
}

Json to_json(const SweepRequest& request) {
  Json out = typed(AnyRequest::Type::kSweep);
  out.set("spec", to_json(request.spec));
  out.set("f_start_hz", request.f_start_hz);
  out.set("f_stop_hz", request.f_stop_hz);
  out.set("points_per_decade", request.points_per_decade);
  out.set("threads", request.threads);
  out.set("auto_linearize", request.auto_linearize);
  return out;
}

Json to_json(const BatchRequest& request) {
  Json out = typed(AnyRequest::Type::kBatch);
  Json items = Json::array();
  for (const RefgenRequest& item : request.items) {
    items.push_back(refgen_members(Json::object(), item.spec, item.options, item.auto_linearize));
  }
  out.set("items", std::move(items));
  out.set("threads", request.threads);
  return out;
}

Json to_json(const SimplifyRequest& request) {
  const refgen::SimplifyOptions& options = request.options;
  Json out = typed(AnyRequest::Type::kSimplify);
  out.set("spec", to_json(request.spec));
  out.set("error_budget", options.error_budget);
  out.set("f_start_hz", options.f_start_hz);
  out.set("f_stop_hz", options.f_stop_hz);
  out.set("band_points", options.band_points);
  out.set("prune", options.prune);
  out.set("prune_share", options.prune_share);
  out.set("max_terms", static_cast<double>(options.max_terms_per_coefficient));
  out.set("max_queue", static_cast<double>(options.max_queue));
  out.set("skip_factor", options.coefficient_skip_factor);
  out.set("options", to_json(options.engine));
  out.set("auto_linearize", request.auto_linearize);
  return out;
}

Json to_json(const ParamSweepRequest& request) {
  Json out = typed(AnyRequest::Type::kParamSweep);
  out.set("spec", to_json(request.spec));
  const bool grid = request.mode == ParamSweepRequest::Mode::kGrid;
  out.set("mode", grid ? "grid" : "monte_carlo");
  Json params = Json::array();
  if (grid) {
    for (const mna::ParamAxis& axis : request.axes) {
      Json entry = Json::object();
      entry.set("name", axis.name);
      entry.set("from", axis.from);
      entry.set("to", axis.to);
      entry.set("count", axis.count);
      entry.set("log", axis.log_scale);
      params.push_back(std::move(entry));
    }
  } else {
    for (const mna::ParamDist& dist : request.dists) {
      Json entry = Json::object();
      entry.set("name", dist.name);
      entry.set("nominal", dist.nominal);
      entry.set("rel_sigma", dist.rel_sigma);
      entry.set("dist", dist.kind == mna::ParamDist::Kind::kGaussian ? "gaussian" : "uniform");
      params.push_back(std::move(entry));
    }
    out.set("samples", request.samples);
    out.set("seed", static_cast<double>(request.seed));
  }
  out.set("params", std::move(params));
  out.set("f_start_hz", request.f_start_hz);
  out.set("f_stop_hz", request.f_stop_hz);
  out.set("points_per_decade", request.points_per_decade);
  out.set("threads", request.threads);
  out.set("auto_linearize", request.auto_linearize);
  return out;
}

Json to_json(const AnyRequest& request) {
  switch (request.type) {
    case AnyRequest::Type::kRefgen: return to_json(request.refgen);
    case AnyRequest::Type::kPolesZeros: return to_json(request.poles_zeros);
    case AnyRequest::Type::kOp: return to_json(request.op);
    case AnyRequest::Type::kTransient: return to_json(request.transient);
    case AnyRequest::Type::kSweep: return to_json(request.sweep);
    case AnyRequest::Type::kBatch: return to_json(request.batch);
    case AnyRequest::Type::kSimplify: return to_json(request.simplify);
    case AnyRequest::Type::kParamSweep: return to_json(request.param_sweep);
  }
  return Json::object();
}

std::string request_key(const Json& encoded_request) {
  return strip_execution_knobs(encoded_request).dump();
}

namespace {

/// The members of a refgen-shaped request: required "spec", optional
/// "options" and "auto_linearize".
Result<RefgenRequest> refgen_request_from_json(const Json& json, const char* what) {
  RefgenRequest request;
  Status status;
  if (!(status = read_spec(json, &request.spec, what)).ok()) return status;
  if (!(status = read_options(json, &request.options)).ok()) return status;
  if (!(status = read_bool(json, "auto_linearize", &request.auto_linearize, what)).ok()) {
    return status;
  }
  return request;
}

}  // namespace

Result<AnyRequest> request_from_json(const Json& json) {
  constexpr const char* kWhat = "request";
  if (!json.is_object()) {
    return Status::error(StatusCode::kInvalidArgument, "request: expected a JSON object");
  }
  std::string type;
  Status status = read_string(json, "type", true, &type, kWhat);
  if (!status.ok()) return status;

  // Accepted-and-ignored members, kept so old request files still parse:
  // "kernel" (the replay kernel is chosen automatically) and "threads" on op
  // and transient (both run serially).
  AnyRequest request;
  if (type == "refgen" || type == "poles_zeros") {
    status = check_keys(json, {"type", "spec", "options", "auto_linearize"}, kWhat);
    if (!status.ok()) return status;
    Result<RefgenRequest> parsed = refgen_request_from_json(json, kWhat);
    if (!parsed.ok()) return parsed.status();
    if (type == "refgen") {
      request.type = AnyRequest::Type::kRefgen;
      request.refgen = parsed.take();
    } else {
      RefgenRequest refgen = parsed.take();
      request.type = AnyRequest::Type::kPolesZeros;
      request.poles_zeros = {std::move(refgen.spec), std::move(refgen.options),
                             refgen.auto_linearize};
    }
    return request;
  }
  if (type == "sweep") {
    status = check_keys(
        json,
        {"type", "spec", "f_start_hz", "f_stop_hz", "points_per_decade", "threads", "kernel",
         "auto_linearize"},
        kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kSweep;
    SweepRequest& sweep = request.sweep;
    if (!(status = read_spec(json, &sweep.spec, kWhat)).ok()) return status;
    if (!(status = read_number(json, "f_start_hz", &sweep.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &sweep.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "points_per_decade", &sweep.points_per_decade, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "threads", &sweep.threads, kWhat)).ok()) return status;
    if (!(status = read_bool(json, "auto_linearize", &sweep.auto_linearize, kWhat)).ok()) {
      return status;
    }
    return request;
  }
  if (type == "op") {
    status = check_keys(json, {"type", "threads"}, kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kOp;
    return request;
  }
  if (type == "transient") {
    status = check_keys(json, {"type", "tstop", "tstep", "method", "adaptive", "threads"},
                        kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kTransient;
    TransientRequest& tran = request.transient;
    if (!(status = read_required_number(json, "tstop", &tran.tstop, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "tstep", &tran.tstep, kWhat)).ok()) return status;
    std::string method;
    if (!(status = read_string(json, "method", false, &method, kWhat)).ok()) return status;
    if (!method.empty()) {
      try {
        tran.method = transient::method_from_name(method);
      } catch (const std::invalid_argument& e) {
        return Status::error(StatusCode::kInvalidArgument, std::string("request: ") + e.what());
      }
    }
    if (!(status = read_bool(json, "adaptive", &tran.adaptive, kWhat)).ok()) return status;
    return request;
  }
  if (type == "batch") {
    status = check_keys(json, {"type", "items", "threads"}, kWhat);
    if (!status.ok()) return status;
    const Json* items = json.find("items");
    if (items == nullptr || !items->is_array()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: batch requires an \"items\" array");
    }
    request.type = AnyRequest::Type::kBatch;
    for (const Json& item : items->items()) {
      status = check_keys(item, {"spec", "options", "auto_linearize"}, "batch item");
      if (!status.ok()) return status;
      Result<RefgenRequest> parsed = refgen_request_from_json(item, "batch item");
      if (!parsed.ok()) return parsed.status();
      request.batch.items.push_back(parsed.take());
    }
    if (!(status = read_int(json, "threads", &request.batch.threads, kWhat)).ok()) {
      return status;
    }
    return request;
  }
  if (type == "simplify") {
    status = check_keys(json,
                        {"type", "spec", "error_budget", "f_start_hz", "f_stop_hz",
                         "band_points", "prune", "prune_share", "max_terms", "max_queue",
                         "skip_factor", "options", "auto_linearize"},
                        kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kSimplify;
    if (!(status = read_spec(json, &request.simplify.spec, kWhat)).ok()) return status;
    refgen::SimplifyOptions& options = request.simplify.options;
    if (!(status = read_number(json, "error_budget", &options.error_budget, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_start_hz", &options.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &options.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "band_points", &options.band_points, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_bool(json, "prune", &options.prune, kWhat)).ok()) return status;
    if (!(status = read_number(json, "prune_share", &options.prune_share, kWhat)).ok()) {
      return status;
    }
    int max_terms = static_cast<int>(options.max_terms_per_coefficient);
    int max_queue = static_cast<int>(options.max_queue);
    if (!(status = read_int(json, "max_terms", &max_terms, kWhat)).ok()) return status;
    if (!(status = read_int(json, "max_queue", &max_queue, kWhat)).ok()) return status;
    if (max_terms <= 0 || max_queue <= 0) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: \"max_terms\"/\"max_queue\" must be positive");
    }
    options.max_terms_per_coefficient = static_cast<std::size_t>(max_terms);
    options.max_queue = static_cast<std::size_t>(max_queue);
    if (!(status = read_number(json, "skip_factor", &options.coefficient_skip_factor, kWhat))
             .ok()) {
      return status;
    }
    if (!(status = read_options(json, &options.engine)).ok()) return status;
    if (!(status = read_bool(json, "auto_linearize", &request.simplify.auto_linearize, kWhat))
             .ok()) {
      return status;
    }
    return request;
  }
  if (type == "param_sweep") {
    status = check_keys(json,
                        {"type", "spec", "mode", "params", "samples", "seed", "f_start_hz",
                         "f_stop_hz", "points_per_decade", "threads", "kernel",
                         "auto_linearize"},
                        kWhat);
    if (!status.ok()) return status;
    request.type = AnyRequest::Type::kParamSweep;
    ParamSweepRequest& sweep = request.param_sweep;
    if (!(status = read_spec(json, &sweep.spec, kWhat)).ok()) return status;

    std::string mode = "grid";
    if (!(status = read_string(json, "mode", false, &mode, kWhat)).ok()) return status;
    const bool grid = mode == "grid";
    if (!grid && mode != "monte_carlo") {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: unknown param_sweep mode \"" + mode +
                               "\" (expected grid or monte_carlo)");
    }
    sweep.mode = grid ? ParamSweepRequest::Mode::kGrid : ParamSweepRequest::Mode::kMonteCarlo;

    const Json* params = json.find("params");
    if (params == nullptr || !params->is_array() || params->items().empty()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: param_sweep requires a non-empty \"params\" array");
    }
    for (const Json& entry : params->items()) {
      if (grid) {
        status = check_keys(entry, {"name", "from", "to", "count", "log"}, "param axis");
        if (!status.ok()) return status;
        mna::ParamAxis axis;
        if (!(status = read_string(entry, "name", true, &axis.name, "param axis")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "from", &axis.from, "param axis")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "to", &axis.to, "param axis")).ok()) {
          return status;
        }
        if (entry.find("count") == nullptr) {
          return Status::error(StatusCode::kInvalidArgument,
                               "param axis: missing required key \"count\"");
        }
        if (!(status = read_int(entry, "count", &axis.count, "param axis")).ok()) return status;
        if (!(status = read_bool(entry, "log", &axis.log_scale, "param axis")).ok()) {
          return status;
        }
        sweep.axes.push_back(std::move(axis));
      } else {
        status = check_keys(entry, {"name", "nominal", "rel_sigma", "dist"}, "param dist");
        if (!status.ok()) return status;
        mna::ParamDist dist;
        if (!(status = read_string(entry, "name", true, &dist.name, "param dist")).ok()) {
          return status;
        }
        if (!(status = read_required_number(entry, "nominal", &dist.nominal, "param dist"))
                 .ok()) {
          return status;
        }
        if (!(status =
                  read_required_number(entry, "rel_sigma", &dist.rel_sigma, "param dist"))
                 .ok()) {
          return status;
        }
        std::string kind = "gaussian";
        if (!(status = read_string(entry, "dist", false, &kind, "param dist")).ok()) {
          return status;
        }
        if (kind == "gaussian") {
          dist.kind = mna::ParamDist::Kind::kGaussian;
        } else if (kind == "uniform") {
          dist.kind = mna::ParamDist::Kind::kUniform;
        } else {
          return Status::error(StatusCode::kInvalidArgument,
                               "param dist: unknown dist \"" + kind +
                                   "\" (expected gaussian or uniform)");
        }
        sweep.dists.push_back(std::move(dist));
      }
    }
    if (!(status = read_int(json, "samples", &sweep.samples, kWhat)).ok()) return status;
    double seed = 0.0;
    if (!(status = read_number(json, "seed", &seed, kWhat)).ok()) return status;
    // Seeds ride a JSON number: integers up to 2^53 round-trip exactly.
    if (!(seed >= 0.0) || seed != static_cast<double>(static_cast<std::uint64_t>(seed)) ||
        seed > 9007199254740992.0) {
      return Status::error(StatusCode::kInvalidArgument,
                           "request: \"seed\" must be a non-negative integer <= 2^53");
    }
    sweep.seed = static_cast<std::uint64_t>(seed);
    if (!(status = read_number(json, "f_start_hz", &sweep.f_start_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_number(json, "f_stop_hz", &sweep.f_stop_hz, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "points_per_decade", &sweep.points_per_decade, kWhat)).ok()) {
      return status;
    }
    if (!(status = read_int(json, "threads", &sweep.threads, kWhat)).ok()) return status;
    if (!(status = read_bool(json, "auto_linearize", &sweep.auto_linearize, kWhat)).ok()) {
      return status;
    }
    return request;
  }
  return Status::error(StatusCode::kInvalidArgument,
                       "request: unknown type \"" + type +
                           "\" (expected refgen, sweep, poles_zeros, batch, param_sweep, "
                           "simplify, op, or transient)");
}

Result<std::vector<AnyRequest>> requests_from_json(const Json& json) {
  std::vector<AnyRequest> out;
  if (json.is_array()) {
    for (const Json& item : json.items()) {
      Result<AnyRequest> parsed = request_from_json(item);
      if (!parsed.ok()) return parsed.status();
      out.push_back(parsed.take());
    }
    return out;
  }
  Result<AnyRequest> parsed = request_from_json(json);
  if (!parsed.ok()) return parsed.status();
  out.push_back(parsed.take());
  return out;
}

}  // namespace symref::api
