// Typed request/response messages of the service facade.
//
// One request type per workload the library serves today; every request is
// executed against a compiled CircuitHandle (see api/service.h), so the
// parse/canonicalize/assembly/plan work is paid once per circuit, not once
// per request. The JSON wire mapping of these structs lives in
// api/serialize.h; docs/api.md documents the schema.
//
// On a handle whose netlist carries nonlinear devices (D/Q/M cards), the
// AC-family requests (refgen, sweep, poles_zeros, batch items, param_sweep,
// simplify) run on the small-signal circuit linearized at the handle's
// solved DC bias; a param_sweep re-biases each sample. That circuit is the
// only one such a handle has, so no request member selects it.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "api/status.h"
#include "dc/newton.h"
#include "mna/ac.h"
#include "mna/param_sweep.h"
#include "mna/transfer.h"
#include "refgen/adaptive.h"
#include "refgen/simplify.h"
#include "transient/transient.h"

namespace symref::api {

/// Generate the numerical reference (the paper's algorithm) for one
/// transfer function of the compiled circuit.
struct RefgenRequest {
  mna::TransferSpec spec;
  refgen::AdaptiveOptions options;
};

struct RefgenResponse {
  refgen::AdaptiveResult result;
  /// True when the response was served from the handle's response cache
  /// (identical spec + options seen before on this handle).
  bool from_cache = false;
  /// Facade wall time for this request (cache lookup or full engine run).
  double seconds = 0.0;
};

/// AC sweep (Bode analysis) via direct per-point MNA solves — the
/// "electrical simulator" path.
struct SweepRequest {
  mna::TransferSpec spec;
  double f_start_hz = 1.0;
  double f_stop_hz = 1e9;
  int points_per_decade = 10;
  /// Worker lanes for the per-point solves; results are bit-identical at
  /// every setting (not part of the response-cache key).
  int threads = 1;
  /// Cooperative cancellation checkpoint, polled per point. A cancelled
  /// sweep fails with kCancelled and nothing partial is memoized.
  /// Like threads, not part of the response-cache key.
  support::CancellationToken cancel;
};

struct SweepResponse {
  std::vector<mna::BodePoint> points;
  bool from_cache = false;
  double seconds = 0.0;
};

/// Poles and zeros: reference generation (or a response-cache hit) followed
/// by extended-range Aberth-Ehrlich root extraction.
struct PolesZerosRequest {
  mna::TransferSpec spec;
  /// Options of the underlying reference generation.
  refgen::AdaptiveOptions options;
};

struct PolesZerosResponse {
  std::vector<std::complex<double>> poles;
  std::vector<std::complex<double>> zeros;
  bool poles_converged = false;
  bool zeros_converged = false;
  /// True when the underlying reference came from the response cache.
  bool from_cache = false;
  double seconds = 0.0;
};

/// Parameter sweep (corners / tolerance grid / Monte-Carlo) over the
/// `.param` symbols of a handle compiled FROM NETLIST TEXT: the compiled
/// template re-elaborates per sample while every sample replays the
/// handle-independent baseline factorization plan (see mna/param_sweep.h).
/// Requires a netlist-compiled handle; a handle compiled from a
/// programmatic Circuit fails with kInvalidArgument.
struct ParamSweepRequest {
  mna::TransferSpec spec;
  enum class Mode { kGrid, kMonteCarlo };
  Mode mode = Mode::kGrid;
  /// Grid mode: Cartesian product of these axes.
  std::vector<mna::ParamAxis> axes;
  /// Monte-Carlo mode: one draw per dimension per sample.
  std::vector<mna::ParamDist> dists;
  int samples = 0;         // Monte-Carlo sample count
  std::uint64_t seed = 0;  // Monte-Carlo seed (same seed -> same study)
  /// Probe frequency grid per sample (like SweepRequest's).
  double f_start_hz = 1.0;
  double f_stop_hz = 1e9;
  int points_per_decade = 10;
  /// Worker lanes; results are bit-identical at every setting (not part of
  /// the response-cache key).
  int threads = 1;
  /// Cooperative cancellation, polled per sample. Not part of the cache key.
  support::CancellationToken cancel;
};

struct ParamSweepResponse {
  mna::ParamSweepResult result;
  bool from_cache = false;
  double seconds = 0.0;
};

/// Reference-driven symbolic simplification of one transfer function: prune,
/// re-reference, enumerate and drop terms until the band error certificate
/// fits the budget (refgen/simplify.h). `options.engine.threads/cancel`
/// drive every stage; results are bit-identical at any thread count, so
/// neither is part of the response-cache key. Errors: kInvalidSpec (spec the
/// generators cannot represent), kIncomplete (budget not certifiable within
/// the enumeration caps), kSingularSystem, kCancelled, kInvalidArgument (an
/// ablation switch of `options.engine` off its default, as for refgen).
struct SimplifyRequest {
  mna::TransferSpec spec;
  refgen::SimplifyOptions options;
};

struct SimplifyResponse {
  refgen::SimplifyResult result;
  bool from_cache = false;
  double seconds = 0.0;
};

/// DC operating point (".op") of a device-bearing handle. The bias is
/// solved once when the handle compiles (damped Newton with gmin/source
/// stepping, one shared factorization plan — see dc/newton.h); this request
/// returns that solution, so the first call and every later one are cache
/// hits by construction. On a purely linear handle it fails with
/// kInvalidArgument (there is no bias problem to solve). The request has no
/// fields: nothing about serving a stored bias is tunable.
struct OpRequest {};

struct OpResponse {
  dc::OpResult result;
  /// True when served from the handle's compiled bias (always, today,
  /// except the compile itself).
  bool from_cache = false;
  double seconds = 0.0;
};

/// Time-domain (transient) integration of the handle's circuit over
/// [0, tstop]. Unlike the AC-family requests, which a device-bearing handle
/// serves on its small-signal circuit, the integrator runs the large-signal
/// netlist directly, solving a damped Newton iteration per step on
/// device-bearing handles — that is the point of a transient analysis.
/// Linear handles integrate with one plan replay per step (see
/// transient/transient.h for the step-bucket contract).
struct TransientRequest {
  /// End of the simulated window (seconds, > 0 required).
  double tstop = 0.0;
  /// Reference (maximum) step size; 0 picks tstop / 1000.
  double tstep = 0.0;
  /// Integration method: trapezoidal (default), BDF1 or BDF2.
  transient::Method method = transient::Method::kTrapezoidal;
  /// LTE step control on/off; off = constant tstep steps (one plan bucket).
  bool adaptive = true;
  /// Cooperative cancellation, polled at every step and Newton iterate.
  support::CancellationToken cancel;
};

struct TransientResponse {
  transient::TransientResult result;
  /// True when served from the handle's response cache (identical
  /// tstop/tstep/method/adaptive seen before; small runs only — large
  /// waveforms are recomputed, bit-identically, instead of pinned).
  bool from_cache = false;
  double seconds = 0.0;
};

/// Many reference generations against ONE handle — every transfer function
/// of a chip, or an options sweep. Items run shared-nothing in parallel
/// (each with its own evaluator); per-item failures do not abort the batch.
struct BatchRequest {
  std::vector<RefgenRequest> items;
  /// Outer worker lanes; <= 0 picks the hardware thread count. Item
  /// engines run serially (options.threads is forced to 1).
  int threads = 0;
};

struct BatchItemResponse {
  /// Item outcome; `response` is meaningful only when status.ok().
  Status status;
  RefgenResponse response;
};

struct BatchResponse {
  /// One entry per request item, in item order.
  std::vector<BatchItemResponse> items;
  double seconds = 0.0;
};

}  // namespace symref::api
