#include "api/service.h"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "api/serialize.h"
#include "dc/linearize.h"
#include "dc/newton.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "netlist/canonical.h"
#include "netlist/parser.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"
#include "support/lru_cache.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace symref::api {

namespace {

/// Engine terminations that are errors at the facade boundary.
Status termination_status(const refgen::AdaptiveResult& result) {
  if (result.complete) return Status();
  if (result.termination == "singular_system") {
    return Status::error(StatusCode::kSingularSystem,
                         "adaptive engine: system is singular at the initial scaling "
                         "(floating section or zero-admittance cut)");
  }
  if (result.termination == "cancelled") {
    return Status::error(StatusCode::kCancelled,
                         "adaptive engine: run cancelled before completion");
  }
  return Status::error(StatusCode::kIncomplete,
                       "adaptive engine terminated without a complete reference: " +
                           result.termination);
}

constexpr const char* kEmptyHandleMessage = "empty CircuitHandle (compile a circuit first)";

}  // namespace

namespace internal {

struct CompiledCircuit {
  // Declaration order is construction order: op is solved on original (when
  // it carries devices), linear is the linearization at that bias (or a
  // plain copy), canonical is derived from linear, system references
  // canonical. The struct lives behind a shared_ptr and is never moved, so
  // the internal reference stays valid.
  netlist::Circuit original;
  /// Solved DC bias (device-bearing handles only; default elsewhere).
  /// Immutable after construction — Service::op serves it lock-free.
  dc::OpResult op;
  /// What the AC-family analyses run on: the small-signal linearization of
  /// `original` at `op`, or `original` itself when there are no devices.
  netlist::Circuit linear;
  netlist::Circuit canonical;
  mna::NodalSystem system;
  std::string name;
  /// The parsed-but-unexpanded netlist (compile_netlist only) — what
  /// param_sweep() re-elaborates per sample. Invalid for programmatic
  /// compile() handles.
  netlist::NetlistTemplate netlist_template;

  /// Memoized responses (ServiceOptions::cache_responses): one LRU per
  /// request type, keyed by request_key (which carries the spec), each
  /// bounded by ServiceOptions::max_cached_responses. refgen_cache also
  /// serves poles_zeros and batch items. `cache_mutex` guards the five
  /// caches and their counters. No engine state lives here, so every
  /// computed response depends on its request alone, never on earlier
  /// requests.
  bool cache_responses = true;
  std::mutex cache_mutex;
  support::LruCache<std::string, RefgenResponse> refgen_cache;
  support::LruCache<std::string, SweepResponse> sweep_cache;
  support::LruCache<std::string, ParamSweepResponse> param_sweep_cache;
  support::LruCache<std::string, SimplifyResponse> simplify_cache;
  support::LruCache<std::string, TransientResponse> transient_cache;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  /// Factorization telemetry (Service::engine_stats): the compile-time bias
  /// solve plus every computed refgen, simplify and transient run. Cache
  /// hits run nothing, so they do not re-count.
  std::atomic<std::uint64_t> fresh_factorizations{0};
  std::atomic<std::uint64_t> batched_lanes{0};
  /// Simplify workload counters (Service::engine_stats). Response-level so
  /// cache hits do not re-count.
  std::atomic<std::uint64_t> simplify_term_evals{0};
  std::atomic<std::uint64_t> simplify_terms_dropped{0};
  /// Newton workload counters (Service::engine_stats): the compile-time
  /// bias solve plus every param_sweep per-sample re-bias. Atomics because
  /// sweep lanes bump them concurrently.
  std::atomic<std::uint64_t> newton_iterations{0};
  std::atomic<std::uint64_t> op_solves{0};
  /// Whether Service::op already served the stored bias once (from_cache
  /// flips true on the second and later calls).
  std::atomic<bool> op_served{false};
  /// Transient workload counters (Service::engine_stats). Computed runs
  /// only — cache hits do not re-count.
  std::atomic<std::uint64_t> transient_steps{0};
  std::atomic<std::uint64_t> lte_rejections{0};

  CompiledCircuit(netlist::Circuit circuit, const ServiceOptions& options)
      : original(std::move(circuit)),
        op(original.has_devices() ? dc::solve_op(original) : dc::OpResult{}),
        linear(original.has_devices() ? dc::linearize_at(original, op) : original),
        canonical(netlist::canonicalize(linear)),
        system(canonical),
        cache_responses(options.cache_responses),
        refgen_cache(options.max_cached_responses),
        sweep_cache(options.max_cached_responses),
        param_sweep_cache(options.max_cached_responses),
        simplify_cache(options.max_cached_responses),
        transient_cache(options.max_cached_responses) {
    if (original.has_devices()) {
      op_solves.store(1, std::memory_order_relaxed);
      newton_iterations.store(static_cast<std::uint64_t>(op.newton_iterations),
                              std::memory_order_relaxed);
      fresh_factorizations.store(op.fresh_factorizations, std::memory_order_relaxed);
    }
  }

  /// Adds one computed run's evaluator counters to the engine telemetry.
  void count(const mna::CofactorEvaluator& evaluator) {
    fresh_factorizations.fetch_add(evaluator.fresh_factor_count(), std::memory_order_relaxed);
    batched_lanes.fetch_add(evaluator.batched_lane_count(), std::memory_order_relaxed);
  }
};

}  // namespace internal

using internal::CompiledCircuit;

namespace {

/// The auto_linearize gate: a device-bearing handle only serves AC-family
/// requests that explicitly opted into the linearized circuit, so a client
/// that does not know about devices cannot silently analyze the wrong
/// (nonsensical large-signal) netlist. Linear handles ignore the flag.
Status check_auto_linearize(const CompiledCircuit& compiled, bool auto_linearize) {
  if (compiled.original.has_devices() && !auto_linearize) {
    return Status::error(
        StatusCode::kInvalidArgument,
        "handle '" + compiled.name +
            "' contains nonlinear devices; set auto_linearize=true to run this "
            "analysis on the small-signal circuit linearized at the solved "
            "operating point");
  }
  return Status();
}

/// Values a memoized response pins. The LRU bound counts entries, not
/// bytes, and one Monte-Carlo study or long transient can reach gigabytes —
/// a long-lived daemon must not pin that behind a 64-entry cache. Only
/// responses of at most kMaxCachedValues values are memoized; recomputing
/// the others is bit-identical, so a miss costs only time.
constexpr std::size_t kMaxCachedValues = std::size_t{1} << 16;

template <typename Response>
std::size_t cached_values(const Response& /*response*/) {
  return 0;
}
std::size_t cached_values(const ParamSweepResponse& response) {
  return response.result.response.size();
}
std::size_t cached_values(const TransientResponse& response) {
  const transient::TransientResult& result = response.result;
  return result.states.size() * (result.node_names.size() + result.branch_names.size());
}

/// The one memoized request path: look the request up in `cache` (one of
/// the circuit's LRUs, keyed by request_key), else run `compute` and insert
/// its response. The circuit's cache_mutex is held around the lookup and
/// around the insert, never across `compute`: every compute step builds its
/// own evaluator, simulator or solver, so a long run never blocks the
/// handle, and two racing identical misses both compute the same bytes.
/// Counts hits, misses and evictions, stamps `from_cache` and `seconds`, and
/// memoizes nothing when caching is off or compute fails.
template <typename Response, typename Request, typename Compute>
Result<Response> cached_call(CompiledCircuit& compiled,
                             support::LruCache<std::string, Response>& cache,
                             const Request& request, Compute compute) {
  support::Timer timer;
  const std::string key = compiled.cache_responses ? request_key(to_json(request)) : "";
  if (compiled.cache_responses) {
    std::unique_lock<std::mutex> lock(compiled.cache_mutex);
    if (const Response* hit = cache.find(key)) {
      ++compiled.cache_hits;
      Response response = *hit;
      lock.unlock();
      response.from_cache = true;
      response.seconds = timer.seconds();
      return response;
    }
    ++compiled.cache_misses;
  }
  Result<Response> computed = compute();
  if (!computed.ok()) return computed;
  computed.value().seconds = timer.seconds();
  if (compiled.cache_responses && cached_values(computed.value()) <= kMaxCachedValues) {
    const std::lock_guard<std::mutex> lock(compiled.cache_mutex);
    compiled.cache_evictions += cache.insert(key, computed.value());
  }
  return computed;
}

/// The one refgen path, shared by Service::refgen, poles_zeros and every
/// batch item: the request keys the circuit's refgen cache, `options` is
/// what the engine runs (batch items pin threads = 1; results are
/// bit-identical at any thread count). Each computed run gets a fresh
/// evaluator.
Result<RefgenResponse> cached_refgen(CompiledCircuit& compiled, const RefgenRequest& request,
                                     const refgen::AdaptiveOptions& options) {
  if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
    return gate;
  }
  return cached_call(
      compiled, compiled.refgen_cache, request, [&]() -> Result<RefgenResponse> {
        const mna::CofactorEvaluator evaluator(compiled.system, request.spec);
        refgen::AdaptiveScalingEngine engine(compiled.system, request.spec, options, &evaluator);
        RefgenResponse response;
        response.result = engine.run();
        compiled.count(evaluator);
        if (const Status status = termination_status(response.result); !status.ok()) {
          return status;
        }
        return response;
      });
}

}  // namespace

const netlist::Circuit& CircuitHandle::circuit() const { return compiled_->original; }
bool CircuitHandle::has_devices() const {
  return compiled_ != nullptr && compiled_->original.has_devices();
}
const netlist::Circuit& CircuitHandle::linear() const { return compiled_->linear; }
bool CircuitHandle::has_netlist_template() const {
  return compiled_ != nullptr && compiled_->netlist_template.valid();
}
const std::vector<std::string>& CircuitHandle::parameter_names() const {
  return compiled_->netlist_template.parameter_names();
}
const netlist::Circuit& CircuitHandle::canonical() const { return compiled_->canonical; }
int CircuitHandle::dim() const { return compiled_->system.dim(); }
int CircuitHandle::order_bound() const { return compiled_->system.order_bound(); }
const std::string& CircuitHandle::name() const { return compiled_->name; }
std::string CircuitHandle::summary() const { return compiled_->original.summary(); }

Service::Service(ServiceOptions options) : options_(std::move(options)) {}
Service::~Service() = default;

Result<CircuitHandle> Service::finish_compile(netlist::Circuit circuit, std::string name,
                                              netlist::NetlistTemplate netlist_template) const {
  try {
    auto compiled = std::make_shared<CompiledCircuit>(std::move(circuit), options_);
    compiled->name = name.empty() ? compiled->original.title : std::move(name);
    if (compiled->name.empty()) compiled->name = "circuit";
    compiled->netlist_template = std::move(netlist_template);
    CircuitHandle handle;
    handle.compiled_ = std::move(compiled);
    return handle;
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<CircuitHandle> Service::compile_netlist(std::string_view text, std::string name) const {
  try {
    netlist::NetlistTemplate netlist_template = netlist::parse_netlist_template(text);
    netlist::Circuit circuit = netlist_template.elaborate();
    return finish_compile(std::move(circuit), std::move(name), std::move(netlist_template));
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<CircuitHandle> Service::compile(const netlist::Circuit& circuit, std::string name) const {
  return finish_compile(circuit, std::move(name));
}

template <typename Response, typename Body>
Result<Response> Service::guarded(const CircuitHandle& handle, Body body) {
  if (!handle.valid()) {
    return Status::error(StatusCode::kInvalidArgument, kEmptyHandleMessage);
  }
  try {
    return body(*handle.compiled_);
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<RefgenResponse> Service::refgen(const CircuitHandle& handle,
                                       const RefgenRequest& request) const {
  return guarded<RefgenResponse>(handle, [&](CompiledCircuit& compiled) {
    return cached_refgen(compiled, request, request.options);
  });
}

Result<SimplifyResponse> Service::simplify(const CircuitHandle& handle,
                                           const SimplifyRequest& request) const {
  return guarded<SimplifyResponse>(handle, [&](CompiledCircuit& compiled)
                                               -> Result<SimplifyResponse> {
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    return cached_call(
        compiled, compiled.simplify_cache, request, [&]() -> Result<SimplifyResponse> {
          const mna::CofactorEvaluator evaluator(compiled.system, request.spec);
          SimplifyResponse response;
          response.result = refgen::simplify_transfer(compiled.canonical, compiled.system,
                                                      request.spec, request.options, &evaluator);
          compiled.count(evaluator);
          compiled.simplify_term_evals.fetch_add(response.result.term_evals,
                                                 std::memory_order_relaxed);
          compiled.simplify_terms_dropped.fetch_add(response.result.terms_dropped,
                                                    std::memory_order_relaxed);
          return response;
        });
  });
}

Result<SweepResponse> Service::sweep(const CircuitHandle& handle,
                                     const SweepRequest& request) const {
  return guarded<SweepResponse>(handle, [&](CompiledCircuit& compiled) -> Result<SweepResponse> {
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    return cached_call(
        compiled, compiled.sweep_cache, request, [&]() -> Result<SweepResponse> {
          SweepResponse response;
          response.points = mna::AcSimulator(compiled.linear)
                                .bode(request.spec, request.f_start_hz, request.f_stop_hz,
                                      request.points_per_decade, request.threads, request.cancel);
          return response;
        });
  });
}

Result<ParamSweepResponse> Service::param_sweep(const CircuitHandle& handle,
                                                const ParamSweepRequest& request) const {
  return guarded<ParamSweepResponse>(handle, [&](CompiledCircuit& compiled)
                                                 -> Result<ParamSweepResponse> {
    if (!compiled.netlist_template.valid()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "param_sweep requires a handle compiled from netlist text "
                           "(compile_netlist), not a programmatic circuit");
    }
    if (const Status gate = check_auto_linearize(compiled, request.auto_linearize); !gate.ok()) {
      return gate;
    }
    // Fields the mode does not use are rejected before the lookup: the
    // request's encoding (its cache key) carries only the mode's own fields.
    const bool grid = request.mode == ParamSweepRequest::Mode::kGrid;
    if (grid && (!request.dists.empty() || request.samples != 0)) {
      return Status::error(StatusCode::kInvalidArgument,
                           "param_sweep: grid mode takes axes only (no dists/samples)");
    }
    if (!grid && !request.axes.empty()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "param_sweep: monte_carlo mode takes dists only (no axes)");
    }
    // Seeds ride a JSON number in the encoding, exact up to 2^53.
    if (request.seed > (std::uint64_t{1} << 53)) {
      return Status::error(StatusCode::kInvalidArgument, "param_sweep: seed must be <= 2^53");
    }
    return cached_call(
        compiled, compiled.param_sweep_cache, request, [&]() -> Result<ParamSweepResponse> {
          // Resolve the sample plan, then run: every sample re-elaborates the
          // compiled template and replays the baseline factorization plan.
          const mna::ParamSamplePlan plan =
              grid ? mna::grid_samples(request.axes)
                   : mna::monte_carlo_samples(request.dists, request.samples, request.seed);
          mna::ParamSweepOptions options;
          options.spec = request.spec;
          options.f_start_hz = request.f_start_hz;
          options.f_stop_hz = request.f_stop_hz;
          options.points_per_decade = request.points_per_decade;
          options.threads = request.threads;
          options.cancel = request.cancel;
          ParamSweepResponse response;
          response.result = mna::run_param_sweep(compiled.netlist_template, plan, options);
          // Newton telemetry (device-bearing sweeps re-bias per sample).
          compiled.op_solves.fetch_add(response.result.op_solves, std::memory_order_relaxed);
          compiled.newton_iterations.fetch_add(response.result.newton_iterations,
                                               std::memory_order_relaxed);
          return response;
        });
  });
}

Result<OpResponse> Service::op(const CircuitHandle& handle, const OpRequest& /*request*/) const {
  support::Timer timer;
  return guarded<OpResponse>(handle, [&](CompiledCircuit& compiled) -> Result<OpResponse> {
    if (!compiled.original.has_devices()) {
      return Status::error(StatusCode::kInvalidArgument,
                           "op requires a handle with nonlinear devices (D/Q/M cards); a "
                           "purely linear circuit has no Newton bias problem");
    }
    OpResponse response;
    response.result = compiled.op;
    response.from_cache = compiled.op_served.exchange(true, std::memory_order_relaxed);
    response.seconds = timer.seconds();
    return response;
  });
}

Result<TransientResponse> Service::transient(const CircuitHandle& handle,
                                             const TransientRequest& request) const {
  // Deliberately NO check_auto_linearize: a transient analysis runs the
  // large-signal netlist directly (Newton per step on device handles) —
  // linearizing first would be answering a different question.
  return guarded<TransientResponse>(handle, [&](CompiledCircuit& compiled) {
    return cached_call(
        compiled, compiled.transient_cache, request, [&]() -> Result<TransientResponse> {
          transient::TransientOptions options;
          options.method = request.method;
          options.tstop = request.tstop;
          options.tstep = request.tstep;
          options.adaptive = request.adaptive;
          options.cancel = request.cancel;
          TransientResponse response;
          response.result = transient::TransientSolver(options).solve(compiled.original);
          const transient::TransientResult& result = response.result;
          compiled.transient_steps.fetch_add(static_cast<std::uint64_t>(result.steps),
                                             std::memory_order_relaxed);
          compiled.lte_rejections.fetch_add(static_cast<std::uint64_t>(result.lte_rejections),
                                            std::memory_order_relaxed);
          compiled.fresh_factorizations.fetch_add(result.fresh_factorizations,
                                                  std::memory_order_relaxed);
          compiled.newton_iterations.fetch_add(
              static_cast<std::uint64_t>(result.newton_iterations), std::memory_order_relaxed);
          return response;
        });
  });
}

Result<CacheStats> Service::cache_stats(const CircuitHandle& handle) const {
  return guarded<CacheStats>(handle, [](CompiledCircuit& compiled) -> Result<CacheStats> {
    const std::lock_guard<std::mutex> lock(compiled.cache_mutex);
    CacheStats stats;
    stats.hits = compiled.cache_hits;
    stats.misses = compiled.cache_misses;
    stats.evictions = compiled.cache_evictions;
    stats.entries = compiled.refgen_cache.size() + compiled.sweep_cache.size() +
                    compiled.param_sweep_cache.size() + compiled.simplify_cache.size() +
                    compiled.transient_cache.size();
    return stats;
  });
}

Result<EngineStats> Service::engine_stats(const CircuitHandle& handle) const {
  return guarded<EngineStats>(handle, [](CompiledCircuit& compiled) -> Result<EngineStats> {
    EngineStats stats;
    stats.simplify_term_evals = compiled.simplify_term_evals.load(std::memory_order_relaxed);
    stats.simplify_terms_dropped =
        compiled.simplify_terms_dropped.load(std::memory_order_relaxed);
    stats.newton_iterations = compiled.newton_iterations.load(std::memory_order_relaxed);
    stats.op_solves = compiled.op_solves.load(std::memory_order_relaxed);
    stats.transient_steps = compiled.transient_steps.load(std::memory_order_relaxed);
    stats.lte_rejections = compiled.lte_rejections.load(std::memory_order_relaxed);
    stats.fresh_factorizations = compiled.fresh_factorizations.load(std::memory_order_relaxed);
    stats.batched_lanes = compiled.batched_lanes.load(std::memory_order_relaxed);
    return stats;
  });
}

Result<PolesZerosResponse> Service::poles_zeros(const CircuitHandle& handle,
                                                const PolesZerosRequest& request) const {
  support::Timer timer;
  return guarded<PolesZerosResponse>(handle, [&](CompiledCircuit& compiled)
                                                 -> Result<PolesZerosResponse> {
    Result<RefgenResponse> reference = cached_refgen(
        compiled, {request.spec, request.options, request.auto_linearize}, request.options);
    if (!reference.ok()) return reference.status();
    const refgen::NumericalReference& ref = reference.value().result.reference;
    const numeric::RootResult zeros = numeric::find_roots(ref.numerator().polynomial());
    const numeric::RootResult poles = numeric::find_roots(ref.denominator().polynomial());
    PolesZerosResponse response;
    response.poles = poles.roots;
    response.zeros = zeros.roots;
    response.poles_converged = poles.converged;
    response.zeros_converged = zeros.converged;
    response.from_cache = reference.value().from_cache;
    response.seconds = timer.seconds();
    return response;
  });
}

Result<BatchResponse> Service::batch(const CircuitHandle& handle,
                                     const BatchRequest& request) const {
  support::Timer timer;
  return guarded<BatchResponse>(handle, [&](CompiledCircuit& compiled) -> Result<BatchResponse> {
    BatchResponse response;
    response.items.resize(request.items.size());
    if (request.items.empty()) return response;
    // Items share refgen's compute path and the handle's refgen cache; the
    // outer parallelism owns the lanes, so each item's engine runs serially.
    support::ThreadPool pool(request.threads);
    pool.parallel_for(request.items.size(), [&](std::size_t begin, std::size_t end,
                                                int /*lane*/) {
      for (std::size_t i = begin; i < end; ++i) {
        const RefgenRequest& item = request.items[i];
        BatchItemResponse& out = response.items[i];
        try {
          refgen::AdaptiveOptions options = item.options;
          options.threads = 1;
          Result<RefgenResponse> result = cached_refgen(compiled, item, options);
          out.status = result.status();
          if (result.ok()) out.response = result.take();
        } catch (...) {
          out.status = status_from_current_exception();
        }
      }
    });
    response.seconds = timer.seconds();
    return response;
  });
}

}  // namespace symref::api
