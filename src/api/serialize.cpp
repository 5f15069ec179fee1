#include "api/serialize.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>

#include "api/wire.h"

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

}  // namespace

namespace wire {

// --- Strict decoding --------------------------------------------------------

Decoder::Decoder(const Json& json, const char* what) : json_(json), what_(what) {
  named_.reserve(16);
  if (!json.is_object()) fail("expected a JSON object");
}

const Json* Decoder::find(const char* key, Need need) {
  named_.push_back(key);
  if (!status_.ok()) return nullptr;
  const Json* value = json_.find(key);
  if (value == nullptr && (need == Need::kRequired || need == Need::kNonEmpty)) {
    fail("missing required key \"" + std::string(key) + "\"");
  }
  return value;
}

void Decoder::fail(const char* key, const char* message) {
  std::string text = "\"";
  text.append(key).append("\" ").append(message);
  fail(std::move(text));
}

void Decoder::fail(std::string message) {
  status_ = Status::error(StatusCode::kInvalidArgument, std::string(what_) + ": " + message);
}

bool Decoder::adopt(Status status) {
  if (status.ok()) return true;
  status_ = std::move(status);
  return false;
}

bool Decoder::integer(const char* key, Need need, double low, double high, double* out) {
  const Json* value = find(key, need);
  if (value == nullptr) return false;
  if (need == Need::kPositive) {
    low = 1.0;
    high = INT_MAX;
  }
  // Range-check before any cast: casting an out-of-range double is
  // undefined, and these members come from untrusted documents.
  const double number = value->as_number();
  if (!value->is_number() || !(number >= low && number <= high) ||
      number != std::trunc(number)) {
    char range[64];
    std::snprintf(range, sizeof(range), "must be an integer in [%.0f, %.0f]", low, high);
    fail(key, range);
    return false;
  }
  *out = number;
  return true;
}

void Decoder::field(const char* key, double& member, Need need) {
  const Json* value = find(key, need);
  if (value == nullptr) return;
  if (!value->is_number()) return fail(key, "must be a number");
  member = value->as_number();
}

void Decoder::field(const char* key, int& member, Need need) {
  double number = 0.0;
  if (integer(key, need, INT_MIN, INT_MAX, &number)) member = static_cast<int>(number);
}

void Decoder::field(const char* key, std::uint64_t& member, Need need) {
  double number = 0.0;
  if (integer(key, need, 0.0, 0x1p53, &number)) member = static_cast<std::uint64_t>(number);
}

void Decoder::field(const char* key, bool& member, Need need) {
  const Json* value = find(key, need);
  if (value == nullptr) return;
  if (!value->is_bool()) return fail(key, "must be a boolean");
  member = value->as_bool();
}

void Decoder::field(const char* key, std::string& member, Need need) {
  const Json* value = find(key, need);
  if (value == nullptr) return;
  if (!value->is_string()) return fail(key, "must be a string");
  member = value->as_string();
}

Status Decoder::finish() {
  if (!status_.ok()) return status_;
  for (const auto& member : json_.members()) {
    const std::string& key = member.first;
    if (std::none_of(named_.begin(), named_.end(),
                     [&key](const char* name) { return key == name; })) {
      fail("unknown key \"" + key + "\"");
      break;
    }
  }
  return status_;
}

// --- Encoding ---------------------------------------------------------------

template <typename T>
Json encode(const T& value);

/// The Decoder's twin: writes each member in schema order.
class Encoder {
 public:
  void field(const char* key, double value, Need = Need::kOptional) { out_.set(key, value); }
  void field(const char* key, int value, Need = Need::kOptional) { out_.set(key, value); }
  void field(const char* key, bool value, Need = Need::kOptional) { out_.set(key, value); }
  void field(const char* key, const std::string& value, Need = Need::kOptional) {
    out_.set(key, value);
  }
  void field(const char* key, std::uint64_t value, Need = Need::kOptional) {
    out_.set(key, static_cast<double>(value));
  }
  template <typename E, std::size_t N>
  void choice(const char* key, E value, const Token<E> (&tokens)[N], Need = Need::kOptional) {
    for (const Token<E>& token : tokens) {
      if (token.value == value) {
        out_.set(key, token.name);
        return;
      }
    }
  }
  template <typename T>
  void object(const char* key, const T& member, Need = Need::kOptional) {
    out_.set(key, encode(member));
  }
  template <typename T>
  void objects(const char* key, const std::vector<T>& items, const char* /*what*/,
               Need = Need::kOptional) {
    Json array = Json::array();
    for (const T& item : items) array.push_back(encode(item));
    out_.set(key, std::move(array));
  }
  void ignored(const char* /*key*/) {}

  Json take() { return std::move(out_); }

 private:
  Json out_ = Json::object();
};

template <typename T>
Json encode(const T& value) {
  Encoder out;
  schema(out, value);
  return out.take();
}

// --- Schemas: every wire member of every request type, named once ----------

/// `T` is `U` or `const U`: one schema serves the Decoder (mutable members)
/// and the Encoder (const members).
template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

constexpr Token<mna::TransferSpec::Kind> kSpecKinds[] = {
    {"voltage_gain", mna::TransferSpec::Kind::VoltageGain},
    {"transimpedance", mna::TransferSpec::Kind::Transimpedance}};

constexpr Token<ParamSweepRequest::Mode> kSweepModes[] = {
    {"grid", ParamSweepRequest::Mode::kGrid},
    {"monte_carlo", ParamSweepRequest::Mode::kMonteCarlo}};

constexpr Token<mna::ParamDist::Kind> kDistKinds[] = {
    {"gaussian", mna::ParamDist::Kind::kGaussian},
    {"uniform", mna::ParamDist::Kind::kUniform}};

/// transient::method_from_name's tokens; the first of each method is the
/// one the encoder writes (transient::method_name).
constexpr Token<transient::Method> kMethods[] = {
    {"trap", transient::Method::kTrapezoidal}, {"trapezoidal", transient::Method::kTrapezoidal},
    {"bdf1", transient::Method::kBdf1},        {"be", transient::Method::kBdf1},
    {"euler", transient::Method::kBdf1},       {"bdf2", transient::Method::kBdf2},
    {"gear2", transient::Method::kBdf2}};

constexpr Token<AnyRequest::Type> kRequestTypes[] = {
    {"refgen", AnyRequest::Type::kRefgen},
    {"sweep", AnyRequest::Type::kSweep},
    {"poles_zeros", AnyRequest::Type::kPolesZeros},
    {"batch", AnyRequest::Type::kBatch},
    {"param_sweep", AnyRequest::Type::kParamSweep},
    {"simplify", AnyRequest::Type::kSimplify},
    {"op", AnyRequest::Type::kOp},
    {"transient", AnyRequest::Type::kTransient}};

template <typename IO, Is<mna::TransferSpec> Spec>
void schema(IO& io, Spec& spec) {
  io.choice("kind", spec.kind, kSpecKinds);
  io.field("in", spec.in_pos, Need::kRequired);
  io.field("in_neg", spec.in_neg);
  io.field("out", spec.out_pos, Need::kRequired);
  io.field("out_neg", spec.out_neg);
}

template <typename IO, Is<refgen::AdaptiveOptions> Options>
void schema(IO& io, Options& options) {
  io.field("sigma", options.sigma);
  io.field("tuning_r", options.tuning_r);
  io.field("max_iterations", options.max_iterations);
  io.field("threads", options.threads);
  // Legacy: engine constants and engine-only switches, and the replay
  // kernel, which is chosen automatically.
  for (const char* key : {"noise_decades", "use_deflation", "conjugate_symmetry",
                          "simultaneous_scaling", "geometric_mean_heuristic", "initial_f",
                          "initial_g", "no_progress_limit", "kernel"}) {
    io.ignored(key);
  }
}

/// refgen, poles_zeros and batch items.
template <typename IO, typename Request>
  requires Is<Request, RefgenRequest> || Is<Request, PolesZerosRequest>
void schema(IO& io, Request& request) {
  io.object("spec", request.spec, Need::kRequired);
  io.object("options", request.options);
  io.ignored("auto_linearize");  // legacy: device handles need no opt-in
}

template <typename IO, Is<SweepRequest> Sweep>
void schema(IO& io, Sweep& sweep) {
  io.object("spec", sweep.spec, Need::kRequired);
  io.field("f_start_hz", sweep.f_start_hz);
  io.field("f_stop_hz", sweep.f_stop_hz);
  io.field("points_per_decade", sweep.points_per_decade);
  io.field("threads", sweep.threads);
  // Legacy: device handles need no opt-in; the replay kernel is automatic.
  for (const char* key : {"auto_linearize", "kernel"}) io.ignored(key);
}

template <typename IO, Is<OpRequest> Op>
void schema(IO& io, Op& /*op*/) {
  io.ignored("threads");  // op runs serially
}

template <typename IO, Is<TransientRequest> Transient>
void schema(IO& io, Transient& transient) {
  io.field("tstop", transient.tstop, Need::kRequired);
  io.field("tstep", transient.tstep);
  io.choice("method", transient.method, kMethods);
  io.field("adaptive", transient.adaptive);
  io.ignored("threads");  // transient runs serially
}

template <typename IO, Is<BatchRequest> Batch>
void schema(IO& io, Batch& batch) {
  io.objects("items", batch.items, "batch item", Need::kRequired);
  io.field("threads", batch.threads);
}

template <typename IO, Is<SimplifyRequest> Simplify>
void schema(IO& io, Simplify& simplify) {
  auto& options = simplify.options;
  io.object("spec", simplify.spec, Need::kRequired);
  io.field("error_budget", options.error_budget);
  io.field("f_start_hz", options.f_start_hz);
  io.field("f_stop_hz", options.f_stop_hz);
  io.field("band_points", options.band_points);
  io.field("max_terms", options.max_terms_per_coefficient, Need::kPositive);
  io.object("options", options.engine);
  // Legacy: pruning always runs; its share and the SDG queue and skip knobs
  // are constants, and device handles need no opt-in.
  for (const char* key : {"prune", "prune_share", "max_queue", "skip_factor", "auto_linearize"}) {
    io.ignored(key);
  }
}

template <typename IO, Is<mna::ParamAxis> Axis>
void schema(IO& io, Axis& axis) {
  io.field("name", axis.name, Need::kRequired);
  io.field("from", axis.from, Need::kRequired);
  io.field("to", axis.to, Need::kRequired);
  io.field("count", axis.count, Need::kRequired);
  io.field("log", axis.log_scale);
}

template <typename IO, Is<mna::ParamDist> Dist>
void schema(IO& io, Dist& dist) {
  io.field("name", dist.name, Need::kRequired);
  io.field("nominal", dist.nominal, Need::kRequired);
  io.field("rel_sigma", dist.rel_sigma, Need::kRequired);
  io.choice("dist", dist.kind, kDistKinds);
}

/// "mode" comes first: it selects grid axes or Monte-Carlo dimensions (with
/// their "samples" and "seed") as the "params" entries.
template <typename IO, Is<ParamSweepRequest> ParamSweep>
void schema(IO& io, ParamSweep& sweep) {
  io.object("spec", sweep.spec, Need::kRequired);
  io.choice("mode", sweep.mode, kSweepModes);
  if (sweep.mode == ParamSweepRequest::Mode::kGrid) {
    io.objects("params", sweep.axes, "param axis", Need::kNonEmpty);
  } else {
    io.field("samples", sweep.samples);
    io.field("seed", sweep.seed);
    io.objects("params", sweep.dists, "param dist", Need::kNonEmpty);
  }
  io.field("f_start_hz", sweep.f_start_hz);
  io.field("f_stop_hz", sweep.f_stop_hz);
  io.field("points_per_decade", sweep.points_per_decade);
  io.field("threads", sweep.threads);
  // Legacy: device handles need no opt-in; the replay kernel is automatic.
  for (const char* key : {"auto_linearize", "kernel"}) io.ignored(key);
}

template <typename IO, Is<AnyRequest> Any>
void request_schema(IO& io, Any& request) {
  io.choice("type", request.type, kRequestTypes, Need::kRequired);
  switch (request.type) {
    case AnyRequest::Type::kRefgen: return schema(io, request.refgen);
    case AnyRequest::Type::kSweep: return schema(io, request.sweep);
    case AnyRequest::Type::kPolesZeros: return schema(io, request.poles_zeros);
    case AnyRequest::Type::kBatch: return schema(io, request.batch);
    case AnyRequest::Type::kParamSweep: return schema(io, request.param_sweep);
    case AnyRequest::Type::kSimplify: return schema(io, request.simplify);
    case AnyRequest::Type::kOp: return schema(io, request.op);
    case AnyRequest::Type::kTransient: return schema(io, request.transient);
  }
}

void schema(Decoder& in, AnyRequest& request) { request_schema(in, request); }

}  // namespace wire

namespace {

template <typename T>
Result<T> decode(const Json& json, const char* what) {
  T value;
  wire::Decoder in(json, what);
  schema(in, value);
  Status status = in.finish();
  if (!status.ok()) return status;
  return value;
}

/// One request type's members behind its "type" token.
template <typename Request>
Json encode_request(AnyRequest::Type type, const Request& request) {
  wire::Encoder out;
  out.choice("type", type, wire::kRequestTypes);
  schema(out, request);
  return out.take();
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

Json to_json(const mna::TransferSpec& spec) { return wire::encode(spec); }

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
  return decode<mna::TransferSpec>(json, "spec");
}

const char* request_type_name(AnyRequest::Type type) noexcept {
  for (const auto& token : wire::kRequestTypes) {
    if (token.value == type) return token.name;
  }
  return "refgen";
}

namespace {

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
  return encode_request(AnyRequest::Type::kRefgen, request);
}

Json to_json(const PolesZerosRequest& request) {
  return encode_request(AnyRequest::Type::kPolesZeros, request);
}

Json to_json(const OpRequest& request) { return encode_request(AnyRequest::Type::kOp, request); }

Json to_json(const TransientRequest& request) {
  return encode_request(AnyRequest::Type::kTransient, request);
}

Json to_json(const SweepRequest& request) {
  return encode_request(AnyRequest::Type::kSweep, request);
}

Json to_json(const BatchRequest& request) {
  return encode_request(AnyRequest::Type::kBatch, request);
}

Json to_json(const SimplifyRequest& request) {
  return encode_request(AnyRequest::Type::kSimplify, request);
}

Json to_json(const ParamSweepRequest& request) {
  return encode_request(AnyRequest::Type::kParamSweep, request);
}

Json to_json(const AnyRequest& request) {
  wire::Encoder out;
  wire::request_schema(out, request);
  return out.take();
}

std::string request_key(const Json& encoded_request) {
  return strip_execution_knobs(encoded_request).dump();
}

Result<AnyRequest> request_from_json(const Json& json) {
  return decode<AnyRequest>(json, "request");
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
