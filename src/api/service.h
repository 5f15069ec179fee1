// The public entry point: compile once, query many times.
//
// Every caller used to hand-wire parse_netlist -> canonicalize ->
// NodalSystem -> AdaptiveScalingEngine / AcSimulator, re-paying the
// symbolic work on every query and letting exceptions leak across module
// boundaries. api::Service packages that flow the way a long-lived server
// would run it:
//
//   Service service;
//   auto handle = service.compile_netlist(text);          // once per circuit
//   if (!handle.ok()) { ... handle.status() ... }
//   auto ref = service.refgen(handle.value(), {spec, options});   // many times
//
// A CircuitHandle is an immutable compiled circuit — the parsed netlist,
// its canonical {G, C, VCCS} twin, and the NodalSystem — plus (unless
// ServiceOptions::max_cached_responses is 0) memoized responses for repeated
// identical requests. No engine state survives a request: every computed
// response is a function of the circuit and the request alone, so a warm
// handle answers exactly like a fresh one. Handles are cheap shared
// references; copying one shares the compiled circuit and its caches.
//
// No exception escapes any Service entry point: every method returns
// api::Result<T>, with failure classes mapped to distinct StatusCodes
// (api/status.h; the taxonomy is documented in docs/api.md).
//
// Concurrency: Service methods are safe to call from multiple threads.
// Every request runs shared-nothing; a handle's response caches share one
// mutex, held only around a lookup or an insert, so identical concurrent
// misses may both compute (with identical results).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "api/requests.h"
#include "api/status.h"
#include "netlist/circuit.h"
#include "netlist/parser.h"

namespace symref::api {

namespace internal {
struct CompiledCircuit;
}

struct ServiceOptions {
  /// Bound on each of a handle's response caches — one per request type
  /// (refgen, also serving poles_zeros and batch items; sweep; param_sweep;
  /// simplify; transient), shared by all of its specs — with
  /// least-recently-used eviction. Responses are keyed by api::request_key
  /// (the exact request minus thread counts — results are bit-identical at
  /// any count), so an identical repeated request costs a map lookup, the
  /// way an idempotent server endpoint would serve it. 0 memoizes nothing
  /// and counts no hit or miss.
  std::size_t max_cached_responses = 64;
};

/// Response-cache counters of one handle (its five request-type caches
/// combined) since compile, read as one snapshot. Monotonic except
/// `entries`.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Responses currently resident across the handle's five caches.
  std::size_t entries = 0;
};

/// Engine counters of one handle (all specs combined) since compile. Every
/// counter is monotonic and counts computed runs only (cache hits run
/// nothing); batch() items count like the same refgen() requests sent alone.
struct EngineStats {
  /// Fresh (non-replay) factorizations: each computed run's first one plus
  /// every refused plan replay that fell back, on whichever pool lane it
  /// ran (the compile-time bias solve and refgen, simplify and transient
  /// runs).
  std::uint64_t fresh_factorizations = 0;
  /// Samples evaluated through the batched SoA replay kernel (all specs
  /// combined). Stays 0 when every replay ran the scalar path.
  std::uint64_t batched_lanes = 0;
  /// Band-point evaluations the simplify() pruning/certification stages
  /// spent ranking candidates and trialing term drops. Monotonic.
  std::uint64_t simplify_term_evals = 0;
  /// Symbolic terms simplify() enumerated and then discarded (SAG drops).
  /// Monotonic.
  std::uint64_t simplify_terms_dropped = 0;
  /// Damped-Newton iterations spent solving DC operating points on this
  /// handle: the compile-time bias solve plus every per-sample re-bias a
  /// device-bearing param_sweep() performs. 0 on linear handles. Monotonic.
  std::uint64_t newton_iterations = 0;
  /// DC operating-point solves (compile-time bias + param_sweep re-biases).
  /// 0 on linear handles. Monotonic.
  std::uint64_t op_solves = 0;
  /// Accepted time steps integrated by transient() requests on this handle
  /// (computed runs only — cache hits do not re-count). Monotonic.
  std::uint64_t transient_steps = 0;
  /// Transient step candidates the LTE controller rejected and retried in a
  /// smaller step bucket. Monotonic.
  std::uint64_t lte_rejections = 0;
};

/// A compiled circuit: immutable shared state plus internally synchronized
/// response caches, one per request type. Obtain from Service::compile*; a
/// default-constructed handle is empty (valid() == false) and every request
/// against it fails with kInvalidArgument.
class CircuitHandle {
 public:
  CircuitHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return compiled_ != nullptr; }

  /// The circuit as given (pre-canonicalization). Requires valid().
  [[nodiscard]] const netlist::Circuit& circuit() const;
  /// True when the compiled netlist carries nonlinear devices (D/Q/M
  /// cards); such a handle solved its DC bias at compile and serves every
  /// AC-family request on the circuit linearized at that bias.
  [[nodiscard]] bool has_devices() const;
  /// The small-signal circuit the AC-family analyses run on: the
  /// linearization of circuit() at the solved operating point when
  /// has_devices(), circuit() itself otherwise. Requires valid().
  [[nodiscard]] const netlist::Circuit& linear() const;
  /// True when the handle was compiled from netlist text, which retains the
  /// parsed template — the prerequisite for param_sweep() (a programmatic
  /// compile() has no parameters to re-elaborate).
  [[nodiscard]] bool has_netlist_template() const;
  /// Top-level `.param` names of the compiled netlist (empty for
  /// programmatic handles). Requires valid().
  [[nodiscard]] const std::vector<std::string>& parameter_names() const;
  /// The canonical {G, C, VCCS} twin the interpolation engine runs on.
  [[nodiscard]] const netlist::Circuit& canonical() const;
  /// Admittance-matrix dimension and determinant-degree bound.
  [[nodiscard]] int dim() const;
  [[nodiscard]] int order_bound() const;
  /// Compile-time label (explicit name, else the netlist title).
  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] std::string summary() const;

 private:
  friend class Service;
  std::shared_ptr<internal::CompiledCircuit> compiled_;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Parse + canonicalize + build the nodal system. `name` labels the
  /// handle (falls back to the netlist .title).
  [[nodiscard]] Result<CircuitHandle> compile_netlist(std::string_view text,
                                                      std::string name = {}) const;

  /// Compile a programmatically built circuit (copied into the handle).
  [[nodiscard]] Result<CircuitHandle> compile(const netlist::Circuit& circuit,
                                              std::string name = {}) const;

  /// The paper's algorithm for one transfer function of the handle. An
  /// identical repeated request is served from the memoized response.
  /// Errors: kInvalidSpec, kSingularSystem, kIncomplete, kInvalidArgument
  /// (an engine-only ablation switch set off its default, docs/options.md).
  [[nodiscard]] Result<RefgenResponse> refgen(const CircuitHandle& handle,
                                              const RefgenRequest& request) const;

  /// Direct AC sweep: one factorization plan replayed across the grid.
  /// Errors: kInvalidSpec, kInvalidArgument (bad grid), kSingularSystem.
  [[nodiscard]] Result<SweepResponse> sweep(const CircuitHandle& handle,
                                            const SweepRequest& request) const;

  /// Reference generation (cache-shared with refgen()) + root extraction.
  [[nodiscard]] Result<PolesZerosResponse> poles_zeros(const CircuitHandle& handle,
                                                       const PolesZerosRequest& request) const;

  /// Plan-reusing parameter sweep (grid or seeded Monte-Carlo) over the
  /// handle's top-level `.param` symbols: compile once, re-stamp values and
  /// replay the baseline factorization plan per sample. Bit-identical at
  /// every thread count. Errors: kInvalidArgument (programmatic handle,
  /// unknown parameter, bad grid/sample counts), kInvalidSpec,
  /// kParseError (a sample drives an expression into a failure, e.g.
  /// division by zero), kCancelled.
  [[nodiscard]] Result<ParamSweepResponse> param_sweep(const CircuitHandle& handle,
                                                       const ParamSweepRequest& request) const;

  /// Reference-driven symbolic simplification: prune the circuit, generate
  /// the reduced reference, enumerate terms under eq. (3) and drop them
  /// greedily while the certificate stays inside the budget. Identical
  /// requests hit the handle's simplify response cache. Errors: kInvalidSpec,
  /// kIncomplete, kSingularSystem, kInvalidArgument, kCancelled.
  [[nodiscard]] Result<SimplifyResponse> simplify(const CircuitHandle& handle,
                                                  const SimplifyRequest& request) const;

  /// The DC operating point of a device-bearing handle. The bias was
  /// solved once at compile (one shared Newton factorization plan); this
  /// serves the stored solution, so from_cache is true on every call after
  /// the first. Errors: kInvalidArgument (purely linear handle — no bias
  /// problem). A bias solve that fails surfaces at compile_netlist/compile
  /// as kNoConvergence or kSingularSystem, never here.
  [[nodiscard]] Result<OpResponse> op(const CircuitHandle& handle,
                                      const OpRequest& request) const;

  /// Time-domain integration over [0, tstop]. Unlike the AC family, the
  /// integrator runs the handle's large-signal circuit directly (devices get
  /// a warm-started Newton iteration per step). Small responses are memoized
  /// like the other request types; big waveforms are recomputed
  /// bit-identically instead of pinned in the LRU. Errors: kInvalidArgument
  /// (bad tstop/tstep), kSingularSystem, kNoConvergence, kCancelled.
  [[nodiscard]] Result<TransientResponse> transient(const CircuitHandle& handle,
                                                    const TransientRequest& request) const;

  /// Many refgen items against one handle, in parallel. Each item is
  /// served exactly as refgen() serves it alone (same response cache, same
  /// bytes, same engine_stats). The call itself only fails for an invalid
  /// handle; per-item failures come back in BatchResponse::items[i].status.
  [[nodiscard]] Result<BatchResponse> batch(const CircuitHandle& handle,
                                            const BatchRequest& request) const;

  /// Response-cache counters of the handle (hit/miss/eviction totals and
  /// resident entries). Cheap; safe to call concurrently with requests.
  [[nodiscard]] Result<CacheStats> cache_stats(const CircuitHandle& handle) const;

  /// Engine counters of the handle (fresh factorizations, batched lanes,
  /// simplify, Newton and transient work). Cheap; safe to call concurrently
  /// with requests.
  [[nodiscard]] Result<EngineStats> engine_stats(const CircuitHandle& handle) const;

  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }

 private:
  /// The facade's error contract around one request body: an empty handle
  /// fails with kInvalidArgument, and no exception escapes.
  template <typename Response, typename Body>
  static Result<Response> guarded(const CircuitHandle& handle, Body body);

  [[nodiscard]] Result<CircuitHandle> finish_compile(
      netlist::Circuit circuit, std::string name,
      netlist::NetlistTemplate netlist_template = {}) const;

  ServiceOptions options_;
};

}  // namespace symref::api
