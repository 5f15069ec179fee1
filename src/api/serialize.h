// JSON wire mapping of the facade's requests and responses.
//
// One schema for every front end: tools/refgen emits these payloads with
// --json, request files drive multi-request sessions, and a future RPC
// server reuses the exact same encode/decode path. The schema is documented
// in docs/api.md.
//
// Numbers that must survive a round trip bit-exactly (reference
// coefficients, extended-range values) are carried as hex-float mantissa
// strings plus a binary exponent — JSON doubles would silently round or
// reject inf/nan. Everything else is plain JSON numbers.
#pragma once

#include "api/json.h"
#include "api/requests.h"
#include "api/status.h"
#include "mna/transfer.h"
#include "refgen/reference.h"

namespace symref::api {

// --- Encoding ---------------------------------------------------------------

/// {"code": "parse_error", "message": "...", "line": 3, "column": 7}
/// (message/line/column omitted when empty/unknown; ok status is
/// {"code": "ok"}).
Json to_json(const Status& status);

Json to_json(const mna::TransferSpec& spec);
Json to_json(const refgen::NumericalReference& reference);

/// Response payloads. Every response object carries "type" and "status";
/// the remaining fields are type-specific and only present on success.
Json to_json(const RefgenResponse& response);
/// Node voltages, branch currents and the per-device operating-point table
/// are hex-float strings (bit-exact across the wire — the 1-vs-N-thread
/// byte-compare of the CLI smoke rides on this).
Json to_json(const OpResponse& response);
Json to_json(const SweepResponse& response);
Json to_json(const PolesZerosResponse& response);
Json to_json(const BatchResponse& response);
/// Term values and certificate errors are hex-float (bit-exact across the
/// wire — the daemon-vs-CLI byte-compare of the simplify smoke rides on
/// this).
Json to_json(const SimplifyResponse& response);
/// Per-sample transfer values are hex-float strings (bit-exact across the
/// wire — the 1-vs-N-thread byte-compare of CI's smoke jobs rides on this).
Json to_json(const ParamSweepResponse& response);
/// Time points and waveform samples are hex-float strings (bit-exact across
/// the wire — the 1-vs-N-thread byte-compare of the CLI transient smoke and
/// the daemon-vs-CLI byte-compare ride on this).
Json to_json(const TransientResponse& response);

/// Uniform failure payload: {"type": <type>, "status": {...}}.
Json error_response(const char* type, const Status& status);

// --- Decoding ---------------------------------------------------------------

Result<mna::TransferSpec> spec_from_json(const Json& json);

/// A request of any type, as parsed from a JSON payload.
struct AnyRequest {
  enum class Type {
    kRefgen,
    kSweep,
    kPolesZeros,
    kBatch,
    kParamSweep,
    kSimplify,
    kOp,
    kTransient
  };
  Type type = Type::kRefgen;
  RefgenRequest refgen;
  OpRequest op;
  SweepRequest sweep;
  PolesZerosRequest poles_zeros;
  BatchRequest batch;
  ParamSweepRequest param_sweep;
  SimplifyRequest simplify;
  TransientRequest transient;
};

/// Stable wire token of a request type: "refgen", "sweep", "poles_zeros",
/// "batch", "param_sweep", "simplify", "op", "transient".
const char* request_type_name(AnyRequest::Type type) noexcept;

/// Encode a request in the exact schema request_from_json accepts — the
/// client half of the wire (tools/refgen --connect, request-file writers)
/// and the canonical form request_key() reads.
Json to_json(const RefgenRequest& request);
Json to_json(const PolesZerosRequest& request);
Json to_json(const SweepRequest& request);
Json to_json(const ParamSweepRequest& request);
Json to_json(const SimplifyRequest& request);
Json to_json(const OpRequest& request);
Json to_json(const TransientRequest& request);
Json to_json(const BatchRequest& request);
Json to_json(const AnyRequest& request);

/// The one cache-key rule: an encoded request (to_json above) minus every
/// execution knob ("threads", which never changes a result bit), dumped
/// compactly. Requests that differ in any result-affecting field, down to
/// one ulp of a double, get different keys. api::Service keys its response
/// caches on it and the daemon's reference store hashes it, so the two
/// always agree on which requests are the same.
std::string request_key(const Json& encoded_request);

/// Parse {"type": "refgen"|"sweep"|"poles_zeros"|"batch"|"param_sweep"|
/// "simplify"|"op"|"transient", ...}. Strict: unknown keys and missing
/// required fields fail with kInvalidArgument, so typos in hand-written
/// request files surface instead of silently using defaults. A batch request
/// carries "items": an array of {"spec", "options"} refgen items, plus
/// optional "threads". A param_sweep request carries "mode"
/// ("grid"|"monte_carlo") and "params": grid axes {"name", "from", "to",
/// "count", "log"} or Monte-Carlo dimensions {"name", "nominal",
/// "rel_sigma", "dist"} plus "samples"/"seed". A transient request carries
/// "tstop" plus optional "tstep", "method" ("trap"|"bdf1"|"bdf2") and
/// "adaptive". A simplify request carries "error_budget", the band
/// ("f_start_hz"/"f_stop_hz"/"band_points"), optional "max_terms", and
/// the nested reference-engine "options" ("sigma",
/// "tuning_r", "max_iterations", "threads"). An op request carries nothing
/// else. Legacy members are accepted with any value and ignored:
/// "auto_linearize" on every AC-family request and batch item; "kernel" on
/// sweep, param_sweep and engine "options"; "noise_decades",
/// "use_deflation", "conjugate_symmetry", "simultaneous_scaling",
/// "geometric_mean_heuristic", "initial_f", "initial_g" and
/// "no_progress_limit" on engine "options"; "prune", "prune_share",
/// "max_queue" and "skip_factor" on simplify; and "threads" on op and
/// transient.
Result<AnyRequest> request_from_json(const Json& json);

/// Parse a request *session*: either one request object or an array of
/// them (the multi-request form of tools/refgen --requests).
Result<std::vector<AnyRequest>> requests_from_json(const Json& json);

}  // namespace symref::api
