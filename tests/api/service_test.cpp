// api::Service facade: compile-once/query-many semantics, warm-handle
// caches, the structured error paths of the acceptance criteria (bad
// netlist, bad spec, singular system), batch, and the progress observer.
#include "api/service.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/serialize.h"
#include "circuits/ladder.h"
#include "circuits/ota.h"
#include "circuits/ua741.h"
#include "mna/ac.h"
#include "numeric/scaled.h"
#include "refgen/adaptive.h"
#include "support/random.h"

namespace symref::api {
namespace {

constexpr const char* kRcNetlist = R"(
.title two-pole rc
R1 in  n1 1k
C1 n1  0  100n
R2 n1  out 10k
C2 out 0  10n
)";

mna::TransferSpec rc_spec() { return mna::TransferSpec::voltage_gain("in", "out"); }

TEST(ServiceCompile, NetlistCompilesToValidHandle) {
  const Service service;
  const auto compiled = service.compile_netlist(kRcNetlist);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CircuitHandle& handle = compiled.value();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.name(), "two-pole rc");
  EXPECT_EQ(handle.circuit().element_count(), 4u);
  EXPECT_GT(handle.canonical().element_count(), 0u);
  EXPECT_EQ(handle.dim(), 3);
  EXPECT_EQ(handle.order_bound(), 2);
}

TEST(ServiceCompile, MalformedNetlistMapsToParseErrorWithPosition) {
  const Service service;
  // Line 3: the value token of C1 is garbage; its column is 10.
  const auto compiled = service.compile_netlist("R1 in out 1k\n* comment\nC1 out 0 bogus\n");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kParseError);
  EXPECT_EQ(compiled.status().location().line, 3);
  EXPECT_EQ(compiled.status().location().column, 10);
  EXPECT_NE(compiled.status().message().find("bogus"), std::string::npos);

  // A 50 000-deep {expr} fails at the first '(' past the nesting limit
  // (expression offset 128) instead of overflowing the stack.
  const std::string deep =
      "R1 in 0 {" + std::string(50000, '(') + "1k" + std::string(50000, ')') + "}\n";
  const auto nested = service.compile_netlist(deep);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kParseError);
  EXPECT_EQ(nested.status().location().line, 1);
  EXPECT_EQ(nested.status().location().column, 10 + 128);
}

TEST(ServiceCompile, EmptyHandleIsInvalidArgumentEverywhere) {
  const Service service;
  const CircuitHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(service.refgen(empty, {rc_spec(), {}}).status().code(),
            StatusCode::kInvalidArgument);
  SweepRequest sweep;
  sweep.spec = rc_spec();
  EXPECT_EQ(service.sweep(empty, sweep).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.poles_zeros(empty, {rc_spec(), {}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.batch(empty, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceRefgen, CompleteReferenceAndWarmCacheHit) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();

  const auto cold = service.refgen(handle, {rc_spec(), {}});
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_TRUE(cold.value().result.complete);
  EXPECT_FALSE(cold.value().from_cache);

  const auto warm = service.refgen(handle, {rc_spec(), {}});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  // A cache hit is the same response object: identical coefficients.
  const auto& a = cold.value().result.reference.denominator();
  const auto& b = warm.value().result.reference.denominator();
  ASSERT_EQ(a.order_bound(), b.order_bound());
  for (int i = 0; i <= a.order_bound(); ++i) {
    EXPECT_TRUE(a.at(i).value == b.at(i).value) << i;
  }
}

TEST(ServiceRefgen, WarmPlanReuseWithoutResponseCache) {
  ServiceOptions options;
  options.max_cached_responses = 0;
  const Service service(options);
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();

  const auto cold = service.refgen(handle, {rc_spec(), {}});
  ASSERT_TRUE(cold.ok());
  const auto warm = service.refgen(handle, {rc_spec(), {}});
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm.value().from_cache);
  EXPECT_TRUE(warm.value().result.complete);
  // No engine state survives a request: the repeat is bit-identical.
  const auto& a = cold.value().result.reference.denominator();
  const auto& b = warm.value().result.reference.denominator();
  ASSERT_EQ(a.order_bound(), b.order_bound());
  for (int i = 0; i <= a.order_bound(); ++i) {
    EXPECT_TRUE(a.at(i).value == b.at(i).value) << i;
  }
}

TEST(ServiceRefgen, BadSpecMapsToInvalidSpec) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();
  const auto response =
      service.refgen(handle, {mna::TransferSpec::voltage_gain("in", "no_such_node"), {}});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidSpec);
}

TEST(ServiceRefgen, SingularSystemMapsToSingularStatus) {
  const Service service;
  // "x"/"y" form a floating island: the admittance matrix is singular at
  // every scaling, so the engine gives up on the first iteration.
  const auto compiled = service.compile_netlist("R1 in 0 1k\nR2 x y 1k\n");
  ASSERT_TRUE(compiled.ok());
  const auto response = service.refgen(
      compiled.value(), {mna::TransferSpec::transimpedance("in", "x"), {}});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kSingularSystem);
}

TEST(ServiceRefgen, AblationSwitchesAreRejectedNotServedFromCache) {
  // The ablation switches are in no request_key: after a default refgen,
  // an ablated request on the same handle must fail instead of coming back
  // as the cached default response.
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();
  ASSERT_TRUE(service.refgen(handle, {rc_spec(), {}}).ok());
  for (int off = 0; off < 3; ++off) {
    refgen::AdaptiveOptions ablated;
    ablated.use_deflation = off != 0;
    ablated.conjugate_symmetry = off != 1;
    ablated.simultaneous_scaling = off != 2;
    const auto refgen = service.refgen(handle, {rc_spec(), ablated});
    ASSERT_FALSE(refgen.ok()) << off;
    EXPECT_EQ(refgen.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(service.poles_zeros(handle, {rc_spec(), ablated}).status().code(),
              StatusCode::kInvalidArgument);
    BatchRequest batch;
    batch.items.push_back({rc_spec(), ablated});
    const auto batched = service.batch(handle, batch);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batched.value().items[0].status.code(), StatusCode::kInvalidArgument);
    SimplifyRequest simplify;
    simplify.spec = rc_spec();
    simplify.options.engine = ablated;
    EXPECT_EQ(service.simplify(handle, simplify).status().code(), StatusCode::kInvalidArgument);
  }
  const auto stats = service.cache_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().hits, 0u);
}

TEST(ServiceSweep, WarmCacheAndPlanReuse) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();
  SweepRequest request;
  request.spec = rc_spec();
  request.f_start_hz = 1.0;
  request.f_stop_hz = 1e6;
  request.points_per_decade = 4;

  const auto cold = service.sweep(handle, request);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_EQ(cold.value().points.size(), 25u);

  const auto warm = service.sweep(handle, request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  ASSERT_EQ(warm.value().points.size(), cold.value().points.size());
  for (std::size_t i = 0; i < cold.value().points.size(); ++i) {
    EXPECT_EQ(cold.value().points[i].value, warm.value().points[i].value) << i;
  }

  // A different grid misses the response cache and is computed afresh.
  SweepRequest other = request;
  other.points_per_decade = 3;
  const auto replan = service.sweep(handle, other);
  ASSERT_TRUE(replan.ok());
  EXPECT_FALSE(replan.value().from_cache);
}

TEST(ServiceSweep, ErrorsMapToDistinctCodes) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();

  // Refgen's spec rules: unknown nodes on either side, a degenerate input
  // pair (ground included) and a degenerate transimpedance drive.
  for (const mna::TransferSpec& spec :
       {mna::TransferSpec::voltage_gain("in", "nowhere"),
        mna::TransferSpec::voltage_gain("nowhere", "out"),
        mna::TransferSpec::voltage_gain("in", "out", "in"),
        mna::TransferSpec::voltage_gain("0", "out"),
        mna::TransferSpec::transimpedance("in", "out", "in")}) {
    SweepRequest bad_spec;
    bad_spec.spec = spec;
    bad_spec.f_stop_hz = 1e3;
    EXPECT_EQ(service.sweep(handle, bad_spec).status().code(), StatusCode::kInvalidSpec)
        << spec.in_pos << "," << spec.in_neg << " -> " << spec.out_pos;
    EXPECT_EQ(service.refgen(handle, {spec, {}}).status().code(), StatusCode::kInvalidSpec)
        << spec.in_pos << "," << spec.in_neg << " -> " << spec.out_pos;
  }

  SweepRequest bad_grid;
  bad_grid.spec = rc_spec();
  bad_grid.f_start_hz = -1.0;
  EXPECT_EQ(service.sweep(handle, bad_grid).status().code(), StatusCode::kInvalidArgument);

  // More than 2^20 points fails before anything is allocated; at INT_MAX
  // points per decade the count used to overflow into a two-point sweep.
  SweepRequest huge_grid;
  huge_grid.spec = rc_spec();
  huge_grid.points_per_decade = INT_MAX;
  EXPECT_EQ(service.sweep(handle, huge_grid).status().code(), StatusCode::kInvalidArgument);

  const auto singular = service.compile_netlist("R1 in 0 1k\nR2 x y 1k\n");
  ASSERT_TRUE(singular.ok());
  SweepRequest on_island;
  on_island.spec = mna::TransferSpec::transimpedance("in", "x");
  EXPECT_EQ(service.sweep(singular.value(), on_island).status().code(),
            StatusCode::kSingularSystem);
}

TEST(ServicePolesZeros, UsesSharedRefgenCache) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();
  const auto reference = service.refgen(handle, {rc_spec(), {}});
  ASSERT_TRUE(reference.ok());

  const auto response = service.poles_zeros(handle, {rc_spec(), {}});
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().from_cache);  // rode the refgen response
  EXPECT_TRUE(response.value().poles_converged);
  EXPECT_EQ(response.value().poles.size(), 2u);
  // Two real poles near 1/(R1 C1') and 1/(R2 C2) territory: both negative real.
  for (const auto& pole : response.value().poles) {
    EXPECT_LT(pole.real(), 0.0);
    EXPECT_NEAR(pole.imag(), 0.0, 1e-3 * std::abs(pole.real()));
  }
}

TEST(ServiceBatch, PerItemStatusAndResultsMatchSingleRequests) {
  const Service service;
  const CircuitHandle handle = service.compile(circuits::rc_ladder(8), "ladder-8").take();
  const auto spec = circuits::rc_ladder_spec(8);

  BatchRequest request;
  request.threads = 2;
  request.items.push_back({spec, {}});
  request.items.push_back({mna::TransferSpec::voltage_gain("in", "missing"), {}});
  refgen::AdaptiveOptions sigma8;
  sigma8.sigma = 8;
  request.items.push_back({spec, sigma8});

  const auto response = service.batch(handle, request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().items.size(), 3u);
  const auto& items = response.value().items;
  ASSERT_TRUE(items[0].status.ok()) << items[0].status.to_string();
  EXPECT_TRUE(items[0].response.result.complete);
  EXPECT_EQ(items[1].status.code(), StatusCode::kInvalidSpec);
  ASSERT_TRUE(items[2].status.ok());

  // Item 0 matches a standalone facade request on a fresh service.
  const Service fresh;
  const auto single =
      fresh.refgen(fresh.compile(circuits::rc_ladder(8)).take(), {spec, {}});
  ASSERT_TRUE(single.ok());
  const auto& a = single.value().result.reference.denominator();
  const auto& b = items[0].response.result.reference.denominator();
  ASSERT_EQ(a.order_bound(), b.order_bound());
  for (int i = 0; i <= a.order_bound(); ++i) {
    EXPECT_TRUE(a.at(i).value == b.at(i).value) << i;
  }
}

TEST(ServiceRefgen, ProgressObserverSeesEveryIteration) {
  const Service service;
  const CircuitHandle handle = service.compile(circuits::ua741(), "ua741").take();

  int observed = 0;
  int last_index = -1;
  RefgenRequest request{circuits::ua741_gain_spec(), {}};
  request.options.on_iteration = [&](const refgen::IterationRecord& record) {
    EXPECT_EQ(record.index, last_index + 1);
    last_index = record.index;
    ++observed;
  };
  const auto cold = service.refgen(handle, request);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(static_cast<std::size_t>(observed), cold.value().result.iterations.size());
  EXPECT_GT(observed, 0);

  // Cache hit: the engine never runs, the observer stays silent, and the
  // observer itself is not part of the request fingerprint.
  observed = 0;
  const auto warm = service.refgen(handle, request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  EXPECT_EQ(observed, 0);
}

// --- Parameter sweeps -------------------------------------------------------

constexpr const char* kParamRcNetlist = R"(
.title parameterized rc
.param r=1k c=100n
R1 in out {r}
C1 out 0 {c}
)";

ParamSweepRequest rc_param_sweep() {
  ParamSweepRequest request;
  request.spec = rc_spec();
  request.mode = ParamSweepRequest::Mode::kGrid;
  request.axes = {{"r", 500.0, 2000.0, 4, false}};
  request.f_start_hz = 10.0;
  request.f_stop_hz = 1e5;
  request.points_per_decade = 2;
  return request;
}

TEST(ServiceParamSweep, GridSweepRunsAndCaches) {
  const Service service;
  const auto compiled = service.compile_netlist(kParamRcNetlist);
  ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
  const CircuitHandle& handle = compiled.value();
  EXPECT_TRUE(handle.has_netlist_template());
  ASSERT_EQ(handle.parameter_names().size(), 2u);
  EXPECT_EQ(handle.parameter_names()[0], "r");

  const auto cold = service.param_sweep(handle, rc_param_sweep());
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_EQ(cold.value().result.ok.size(), 4u);
  EXPECT_EQ(cold.value().result.fresh_factorizations, 1u);
  EXPECT_DOUBLE_EQ(cold.value().result.values[0], 500.0);

  // Identical request: memoized. Different threads: still the same entry
  // (threads are excluded from the fingerprint — results are bit-identical).
  ParamSweepRequest warm_request = rc_param_sweep();
  warm_request.threads = 8;
  const auto warm = service.param_sweep(handle, warm_request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);

  // A different grid is a different study.
  ParamSweepRequest other = rc_param_sweep();
  other.axes[0].count = 3;
  const auto miss = service.param_sweep(handle, other);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().from_cache);
}

TEST(ServiceParamSweep, MonteCarloIsSeedDeterministic) {
  const Service service;
  const auto compiled = service.compile_netlist(kParamRcNetlist);
  ASSERT_TRUE(compiled.ok());
  ParamSweepRequest request;
  request.spec = rc_spec();
  request.mode = ParamSweepRequest::Mode::kMonteCarlo;
  request.dists = {{"r", 1e3, 0.05, mna::ParamDist::Kind::kGaussian}};
  request.samples = 16;
  request.seed = 99;
  request.f_start_hz = 100.0;
  request.f_stop_hz = 1e4;
  request.points_per_decade = 1;

  const auto first = service.param_sweep(compiled.value(), request);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_TRUE(service.param_sweep(compiled.value(), request).value().from_cache);

  // Same seed on a FRESH handle: bit-identical study.
  const Service other_service;
  const auto fresh = other_service.param_sweep(
      other_service.compile_netlist(kParamRcNetlist).value(), request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(first.value().result.values, fresh.value().result.values);
  ASSERT_EQ(first.value().result.response.size(), fresh.value().result.response.size());
  for (std::size_t i = 0; i < first.value().result.response.size(); ++i) {
    EXPECT_EQ(first.value().result.response[i], fresh.value().result.response[i]);
  }
}

TEST(ServiceParamSweep, ErrorTaxonomy) {
  const Service service;
  const auto compiled = service.compile_netlist(kParamRcNetlist);
  ASSERT_TRUE(compiled.ok());
  const CircuitHandle& handle = compiled.value();

  // Programmatic handles have no template to re-elaborate.
  const auto programmatic = service.compile(circuits::ua741());
  ASSERT_TRUE(programmatic.ok());
  EXPECT_FALSE(programmatic.value().has_netlist_template());
  ParamSweepRequest request = rc_param_sweep();
  request.spec = circuits::ua741_gain_spec();
  const auto no_template = service.param_sweep(programmatic.value(), request);
  EXPECT_EQ(no_template.status().code(), StatusCode::kInvalidArgument);

  // Unknown parameter name.
  request = rc_param_sweep();
  request.axes[0].name = "nothere";
  EXPECT_EQ(service.param_sweep(handle, request).status().code(),
            StatusCode::kInvalidArgument);

  // Mode/field mismatch.
  request = rc_param_sweep();
  request.samples = 8;
  EXPECT_EQ(service.param_sweep(handle, request).status().code(),
            StatusCode::kInvalidArgument);

  // Bad spec -> kInvalidSpec.
  request = rc_param_sweep();
  request.spec = mna::TransferSpec::voltage_gain("in", "nosuch");
  EXPECT_EQ(service.param_sweep(handle, request).status().code(), StatusCode::kInvalidSpec);

  // Empty handle.
  EXPECT_EQ(service.param_sweep(CircuitHandle(), rc_param_sweep()).status().code(),
            StatusCode::kInvalidArgument);

  // Pre-cancelled token -> kCancelled.
  support::CancellationSource source;
  source.cancel();
  request = rc_param_sweep();
  request.cancel = source.token();
  EXPECT_EQ(service.param_sweep(handle, request).status().code(), StatusCode::kCancelled);
}

TEST(ServiceSimplify, WarmCacheHitAndEngineCounters) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();

  SimplifyRequest request;
  request.spec = rc_spec();
  request.options.error_budget = 0.01;
  request.options.f_start_hz = 10.0;
  request.options.f_stop_hz = 1e5;
  request.options.band_points = 7;

  const auto cold = service.simplify(handle, request);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_FALSE(cold.value().from_cache);
  const auto& result = cold.value().result;
  EXPECT_LE(result.certificate.max_relative_error, request.options.error_budget);
  EXPECT_GT(result.enumerated_terms, 0u);

  const auto stats = service.engine_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().simplify_term_evals, result.term_evals);
  EXPECT_EQ(stats.value().simplify_terms_dropped, result.terms_dropped);

  const auto warm = service.simplify(handle, request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  EXPECT_EQ(warm.value().result.numerator_expression, result.numerator_expression);
  // A cache hit runs no engine: the counters must not move.
  const auto stats_after = service.engine_stats(handle);
  ASSERT_TRUE(stats_after.ok());
  EXPECT_EQ(stats_after.value().simplify_term_evals, result.term_evals);

  // A different budget is a different cache key.
  request.options.error_budget = 0.05;
  const auto other = service.simplify(handle, request);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().from_cache);
}

TEST(ServiceSimplify, ResponsesOverTheValueBoundAreNotMemoized) {
  // A 9-stage ladder at a 1e-9 budget keeps about 17 000 terms, well over
  // 2^16 values once their symbol names count: computed every time, never
  // pinned in the handle's cache.
  const Service service;
  const CircuitHandle handle = service.compile(circuits::rc_ladder(9)).take();
  SimplifyRequest request;
  request.spec = circuits::rc_ladder_spec(9);
  request.options.error_budget = 1e-9;
  for (int run = 0; run < 2; ++run) {
    const auto response = service.simplify(handle, request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_FALSE(response.value().from_cache) << run;
    std::size_t values = 0;
    for (const auto* terms :
         {&response.value().result.numerator_terms, &response.value().result.denominator_terms}) {
      for (const refgen::SimplifiedTerm& term : *terms) values += 1 + term.symbols.size();
    }
    EXPECT_GT(values, std::size_t{1} << 16);
    const auto stats = service.cache_stats(handle);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().entries, 0u);
  }
}

TEST(ServiceSimplify, ErrorTaxonomy) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();

  // Empty handle.
  EXPECT_EQ(service.simplify(CircuitHandle(), {rc_spec(), {}}).status().code(),
            StatusCode::kInvalidArgument);

  // A band over 2^20 points fails before anything is allocated.
  SimplifyRequest huge_band;
  huge_band.spec = rc_spec();
  huge_band.options.band_points = mna::kMaxGridPoints + 1;
  EXPECT_EQ(service.simplify(handle, huge_band).status().code(), StatusCode::kInvalidArgument);

  // Unknown node -> kInvalidSpec.
  SimplifyRequest bad_node;
  bad_node.spec = mna::TransferSpec::voltage_gain("in", "nosuch");
  EXPECT_EQ(service.simplify(handle, bad_node).status().code(), StatusCode::kInvalidSpec);

  // A spec the term generators cannot represent (differential input) is a
  // spec problem too: symbolic::NonAdmissibleError -> kInvalidSpec.
  const auto ota = service.compile(circuits::ota_fig1());
  ASSERT_TRUE(ota.ok());
  SimplifyRequest differential;
  differential.spec = circuits::ota_fig1_gain_spec();
  EXPECT_EQ(service.simplify(ota.value(), differential).status().code(),
            StatusCode::kInvalidSpec);

  // Caps too tight to certify the budget: symbolic::TermEnumerationError ->
  // kIncomplete.
  SimplifyRequest starved;
  starved.spec = rc_spec();
  starved.options.error_budget = 1e-6;
  starved.options.f_start_hz = 10.0;
  starved.options.f_stop_hz = 1e5;
  starved.options.band_points = 5;
  starved.options.max_terms_per_coefficient = 1;
  EXPECT_EQ(service.simplify(handle, starved).status().code(), StatusCode::kIncomplete);

  // Pre-cancelled token -> kCancelled.
  support::CancellationSource source;
  source.cancel();
  SimplifyRequest cancelled;
  cancelled.spec = rc_spec();
  cancelled.options.engine.cancel = source.token();
  EXPECT_EQ(service.simplify(handle, cancelled).status().code(), StatusCode::kCancelled);
}

// --- History-free handles ------------------------------------------------

/// Response JSON minus wall-clock fields: what "byte-identical" compares.
Json strip_timing(const Json& value) {
  if (value.is_object()) {
    Json out = Json::object();
    for (const auto& [key, member] : value.members()) {
      if (key == "seconds" || key == "engine_seconds") continue;
      out.set(key, strip_timing(member));
    }
    return out;
  }
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& item : value.items()) out.push_back(strip_timing(item));
    return out;
  }
  return value;
}

template <typename Response>
std::string scrubbed(const char* type, const Result<Response>& result) {
  if (!result.ok()) return error_response(type, result.status()).dump();
  return strip_timing(to_json(result.value())).dump();
}

/// One request of the mixed stream, answered by `service` on `handle`.
std::string answer(const Service& service, const CircuitHandle& handle,
                   const AnyRequest& request) {
  switch (request.type) {
    case AnyRequest::Type::kRefgen:
      return scrubbed("refgen", service.refgen(handle, request.refgen));
    case AnyRequest::Type::kPolesZeros:
      return scrubbed("poles_zeros", service.poles_zeros(handle, request.poles_zeros));
    case AnyRequest::Type::kSweep:
      return scrubbed("sweep", service.sweep(handle, request.sweep));
    case AnyRequest::Type::kSimplify:
      return scrubbed("simplify", service.simplify(handle, request.simplify));
    default:
      ADD_FAILURE() << "request type outside the stream";
      return {};
  }
}

/// The same refgen request as the single item of a batch.
std::string answer_as_batch_item(const Service& service, const CircuitHandle& handle,
                                 const RefgenRequest& request) {
  BatchRequest batch;
  batch.items.push_back(request);
  batch.threads = 1;
  const auto response = service.batch(handle, batch);
  if (!response.ok()) return error_response("batch", response.status()).dump();
  const BatchItemResponse& item = response.value().items.front();
  return item.status.ok() ? strip_timing(to_json(item.response)).dump()
                          : error_response("refgen", item.status).dump();
}

std::vector<std::uint64_t> counters(const EngineStats& stats) {
  return {stats.fresh_factorizations,   stats.batched_lanes,     stats.simplify_term_evals,
          stats.simplify_terms_dropped, stats.newton_iterations, stats.op_solves,
          stats.transient_steps,        stats.lte_rejections};
}

// Every response is a function of the circuit and the request alone: a
// seeded mixed stream on one warm µA741 handle (and a warm RC handle for
// simplify) answers byte-for-byte like a fresh handle, every refgen also
// like the same request sent as a batch item, and a batch counts in
// engine_stats exactly like the same refgens sent alone.
TEST(ServiceHistory, WarmHandleMatchesFreshHandleAndBatchItem) {
  std::ifstream file(std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741.cir");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const std::string ua741 = text.str();
  const mna::TransferSpec ua741_spec = mna::TransferSpec::voltage_gain("inp", "vo");

  ServiceOptions options;
  options.max_cached_responses = 0;
  const Service service(options);
  const CircuitHandle warm_ua741 = service.compile_netlist(ua741).take();
  const CircuitHandle warm_rc = service.compile_netlist(kRcNetlist).take();

  constexpr double kTuning[] = {-0.5, 0.0, 0.5, 1.0, 2.0};
  constexpr int kMaxIterations[] = {8, 16, 64};
  support::Rng rng(2026);
  std::vector<RefgenRequest> refgens;
  for (int step = 0; step < 48; ++step) {
    AnyRequest request;
    refgen::AdaptiveOptions engine;
    engine.sigma = 4 + static_cast<int>(rng.uniform_index(6));
    engine.tuning_r = kTuning[rng.uniform_index(5)];
    engine.max_iterations = kMaxIterations[rng.uniform_index(3)];
    const std::uint64_t kind = rng.uniform_index(12);
    if (kind < 6) {
      request.type = AnyRequest::Type::kRefgen;
      request.refgen = {ua741_spec, engine};
      refgens.push_back(request.refgen);
    } else if (kind < 7) {
      request.type = AnyRequest::Type::kPolesZeros;
      engine.max_iterations = 64;
      request.poles_zeros = {ua741_spec, engine};
    } else if (kind < 10) {
      request.type = AnyRequest::Type::kSweep;
      request.sweep.spec = ua741_spec;
      request.sweep.f_start_hz = rng.log_uniform(0.1, 100.0);
      request.sweep.f_stop_hz = 1e8;
      request.sweep.points_per_decade = 2 + static_cast<int>(rng.uniform_index(19));
    } else {
      request.type = AnyRequest::Type::kSimplify;
      request.simplify.spec = rc_spec();
      request.simplify.options.error_budget = rng.uniform(0.005, 0.05);
      request.simplify.options.f_start_hz = 10.0;
      request.simplify.options.f_stop_hz = 1e5;
      request.simplify.options.band_points = 5 + static_cast<int>(rng.uniform_index(5));
    }
    const bool on_rc = request.type == AnyRequest::Type::kSimplify;
    const std::string what = "step " + std::to_string(step) + ": " + to_json(request).dump();

    const std::string warm = answer(service, on_rc ? warm_rc : warm_ua741, request);
    const CircuitHandle fresh = service.compile_netlist(on_rc ? kRcNetlist : ua741).take();
    EXPECT_TRUE(warm == answer(service, fresh, request)) << what;
    if (request.type == AnyRequest::Type::kRefgen) {
      EXPECT_TRUE(warm == answer_as_batch_item(service, warm_ua741, request.refgen)) << what;
    }
  }
  ASSERT_GE(refgens.size(), 10u);

  // The stream's refgens as one parallel batch and as direct requests, each
  // on a fresh handle: identical counters, and the counters did move.
  const CircuitHandle batched = service.compile_netlist(ua741).take();
  BatchRequest batch;
  batch.items = refgens;
  batch.threads = 3;
  ASSERT_TRUE(service.batch(batched, batch).ok());
  const CircuitHandle direct = service.compile_netlist(ua741).take();
  for (const RefgenRequest& request : refgens) (void)service.refgen(direct, request);
  const auto batched_stats = service.engine_stats(batched);
  const auto direct_stats = service.engine_stats(direct);
  ASSERT_TRUE(batched_stats.ok());
  ASSERT_TRUE(direct_stats.ok());
  EXPECT_EQ(counters(batched_stats.value()), counters(direct_stats.value()));
  EXPECT_GE(direct_stats.value().fresh_factorizations, refgens.size());
}

// --- Nonlinear handles: .op and the linearized AC family -------------------

constexpr const char* kDiodeNetlist = R"(
.title forward-biased diode
.model nd d is=1e-14
V1 in 0 dc 5
R1 in d 1k
D1 d 0 nd
.param r2v=1k
R2 d m {r2v}
C2 m 0 1n
)";

TEST(ServiceOp, ServesTheCompiledBiasAndMarksRepeatsCached) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kDiodeNetlist).take();
  EXPECT_TRUE(handle.has_devices());

  const auto first = service.op(handle, {});
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().from_cache);  // compile did the work, op reports it
  const dc::OpResult& op = first.value().result;
  EXPECT_GT(op.newton_iterations, 0);
  EXPECT_EQ(op.fresh_factorizations, 1u);  // one shared Newton plan
  EXPECT_LT(op.max_residual, 1e-9);
  EXPECT_NEAR(op.voltage_of("in"), 5.0, 1e-12);
  EXPECT_GT(op.voltage_of("d"), 0.4);  // forward-biased junction
  // No current flows into the open RC tap at DC.
  EXPECT_NEAR(op.voltage_of("m"), op.voltage_of("d"), 1e-9);

  const auto repeat = service.op(handle, {});
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().from_cache);

  auto stats = service.engine_stats(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().op_solves, 1u);
  EXPECT_EQ(stats.value().newton_iterations,
            static_cast<std::uint64_t>(op.newton_iterations));
}

TEST(ServiceOp, LinearHandleIsInvalidArgument) {
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kRcNetlist).take();
  EXPECT_FALSE(handle.has_devices());
  const auto response = service.op(handle, {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("nonlinear devices"), std::string::npos);
}

TEST(ServiceOp, DeviceHandlesServeEveryAcFamilyRequest) {
  // A device-bearing handle has one small-signal circuit, the linearization
  // at its compiled bias, and every AC-family request runs on it.
  const Service service;
  const CircuitHandle handle = service.compile_netlist(kDiodeNetlist).take();
  ASSERT_TRUE(handle.has_devices());
  const mna::TransferSpec spec = mna::TransferSpec::voltage_gain("d", "m");

  const auto refgen = service.refgen(handle, {spec, {}});
  ASSERT_TRUE(refgen.ok()) << refgen.status().to_string();
  EXPECT_TRUE(refgen.value().result.complete);
  SweepRequest sweep;
  sweep.spec = spec;
  sweep.f_stop_hz = 1e6;
  const auto swept = service.sweep(handle, sweep);
  EXPECT_TRUE(swept.ok()) << swept.status().to_string();
  const auto poles = service.poles_zeros(handle, {spec, {}});
  EXPECT_TRUE(poles.ok()) << poles.status().to_string();
  SimplifyRequest simplify;
  simplify.spec = spec;
  const auto simplified = service.simplify(handle, simplify);
  EXPECT_TRUE(simplified.ok()) << simplified.status().to_string();
  ParamSweepRequest param_sweep;
  param_sweep.spec = spec;
  param_sweep.axes = {{"r2v", 1e3, 4e3, 3}};
  param_sweep.f_stop_hz = 1e6;
  const auto param_swept = service.param_sweep(handle, param_sweep);
  EXPECT_TRUE(param_swept.ok()) << param_swept.status().to_string();
  BatchRequest batch;
  batch.items = {{spec, {}}, {spec, {}}};
  batch.items[1].options.sigma = 8;
  const auto batched = service.batch(handle, batch);
  ASSERT_TRUE(batched.ok()) << batched.status().to_string();
  for (const BatchItemResponse& item : batched.value().items) {
    EXPECT_TRUE(item.status.ok()) << item.status.to_string();
  }

  // A stored request that still carries the legacy member shares the key of
  // the same request without it.
  const auto decode = [](const char* text) {
    const auto parsed = request_from_json(Json::parse(text).take());
    EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
    return parsed.value();
  };
  const AnyRequest legacy_refgen =
      decode(R"({"type":"refgen","spec":{"in":"d","out":"m"},"auto_linearize":true})");
  const auto refgen_again = service.refgen(handle, legacy_refgen.refgen);
  ASSERT_TRUE(refgen_again.ok()) << refgen_again.status().to_string();
  EXPECT_TRUE(refgen_again.value().from_cache);
  const AnyRequest legacy_sweep = decode(
      R"({"type":"sweep","spec":{"in":"d","out":"m"},"f_stop_hz":1e6,"auto_linearize":true})");
  const auto sweep_again = service.sweep(handle, legacy_sweep.sweep);
  ASSERT_TRUE(sweep_again.ok()) << sweep_again.status().to_string();
  EXPECT_TRUE(sweep_again.value().from_cache);
}

}  // namespace
}  // namespace symref::api
