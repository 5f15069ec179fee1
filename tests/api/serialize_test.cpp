// JSON wire mapping: encode shapes, strict request decoding, round trips.
#include "api/serialize.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/service.h"
#include "support/random.h"

namespace symref::api {
namespace {

TEST(SerializeStatus, OkAndErrorShapes) {
  EXPECT_EQ(to_json(Status()).dump(), R"({"code":"ok"})");
  const Status error =
      Status::error(StatusCode::kParseError, "bad card", SourceLocation{3, 7});
  EXPECT_EQ(to_json(error).dump(),
            R"({"code":"parse_error","message":"bad card","line":3,"column":7})");
}

TEST(SerializeSpec, RoundTrip) {
  const auto spec = mna::TransferSpec::transimpedance("inp", "vo", "inn", "ref");
  const auto parsed = spec_from_json(to_json(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, spec.kind);
  EXPECT_EQ(parsed.value().in_pos, "inp");
  EXPECT_EQ(parsed.value().in_neg, "inn");
  EXPECT_EQ(parsed.value().out_pos, "vo");
  EXPECT_EQ(parsed.value().out_neg, "ref");
}

TEST(SerializeSpec, StrictDecoding) {
  EXPECT_EQ(spec_from_json(Json::parse(R"({"in":"a"})").take()).status().code(),
            StatusCode::kInvalidArgument);  // missing "out"
  EXPECT_EQ(
      spec_from_json(Json::parse(R"({"in":"a","out":"b","typo":1})").take()).status().code(),
      StatusCode::kInvalidArgument);  // unknown key
  EXPECT_EQ(spec_from_json(Json::parse(R"({"in":"a","out":"b","kind":"nonsense"})").take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(spec_from_json(Json(3.0)).status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeOptions, RoundTripNonDefaults) {
  RefgenRequest request;
  request.spec = mna::TransferSpec::voltage_gain("a", "b");
  refgen::AdaptiveOptions& options = request.options;
  options.sigma = 9;
  options.tuning_r = -0.5;
  options.max_iterations = 40;
  options.use_deflation = false;
  options.threads = 4;
  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const refgen::AdaptiveOptions& decoded = parsed.value().refgen.options;
  EXPECT_EQ(decoded.sigma, 9);
  EXPECT_EQ(decoded.tuning_r, -0.5);
  EXPECT_EQ(decoded.max_iterations, 40);
  EXPECT_EQ(decoded.threads, 4);
  // The ablation switches are engine-only: they do not cross the wire.
  EXPECT_TRUE(decoded.use_deflation);
}

TEST(SerializeRequest, ParsesEveryType) {
  const auto refgen_req = request_from_json(
      Json::parse(R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"sigma":7}})")
          .take());
  ASSERT_TRUE(refgen_req.ok()) << refgen_req.status().to_string();
  EXPECT_EQ(refgen_req.value().type, AnyRequest::Type::kRefgen);
  EXPECT_EQ(refgen_req.value().refgen.options.sigma, 7);

  const auto sweep_req = request_from_json(
      Json::parse(
          R"({"type":"sweep","spec":{"in":"a","out":"b"},"f_start_hz":10,"f_stop_hz":1e6,"points_per_decade":5})")
          .take());
  ASSERT_TRUE(sweep_req.ok());
  EXPECT_EQ(sweep_req.value().type, AnyRequest::Type::kSweep);
  EXPECT_EQ(sweep_req.value().sweep.f_start_hz, 10.0);
  EXPECT_EQ(sweep_req.value().sweep.points_per_decade, 5);

  const auto pz_req = request_from_json(
      Json::parse(R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(pz_req.ok());
  EXPECT_EQ(pz_req.value().type, AnyRequest::Type::kPolesZeros);

  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"bogus"})").take()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"refgen"})").take()).status().code(),
            StatusCode::kInvalidArgument);  // missing spec
}

TEST(SerializeRequest, SessionAcceptsObjectOrArray) {
  const auto one = requests_from_json(
      Json::parse(R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1u);

  const auto many = requests_from_json(
      Json::parse(R"([{"type":"refgen","spec":{"in":"a","out":"b"}},
                      {"type":"sweep","spec":{"in":"a","out":"b"}}])")
          .take());
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many.value().size(), 2u);
  EXPECT_EQ(many.value()[1].type, AnyRequest::Type::kSweep);
}

TEST(SerializeRequest, SimplifyRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kSimplify;
  request.simplify.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.simplify.options.error_budget = 0.02;
  request.simplify.options.f_start_hz = 5.0;
  request.simplify.options.f_stop_hz = 5e4;
  request.simplify.options.band_points = 11;
  request.simplify.options.max_terms_per_coefficient = 1234;
  request.simplify.options.engine.sigma = 8;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().type, AnyRequest::Type::kSimplify);
  const auto& options = parsed.value().simplify.options;
  EXPECT_EQ(options.error_budget, 0.02);
  EXPECT_EQ(options.f_start_hz, 5.0);
  EXPECT_EQ(options.f_stop_hz, 5e4);
  EXPECT_EQ(options.band_points, 11);
  EXPECT_EQ(options.max_terms_per_coefficient, 1234u);
  EXPECT_EQ(options.engine.sigma, 8);
  EXPECT_EQ(parsed.value().simplify.spec.out_pos, "out");
}

TEST(SerializeRequest, SimplifyStrictness) {
  // Minimal form: spec only, everything else defaulted.
  const auto minimal = request_from_json(
      Json::parse(R"({"type":"simplify","spec":{"in":"a","out":"b"}})").take());
  ASSERT_TRUE(minimal.ok()) << minimal.status().to_string();
  EXPECT_EQ(minimal.value().simplify.options.error_budget, 0.01);

  // Unknown keys are rejected, not ignored.
  EXPECT_EQ(request_from_json(
                Json::parse(
                    R"({"type":"simplify","spec":{"in":"a","out":"b"},"bogus_knob":1})")
                    .take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Non-positive caps are rejected.
  EXPECT_EQ(request_from_json(
                Json::parse(
                    R"({"type":"simplify","spec":{"in":"a","out":"b"},"max_terms":0})")
                    .take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeResponse, SimplifyPayloadShape) {
  const Service service;
  const CircuitHandle handle =
      service.compile_netlist("R1 in n1 1k\nC1 n1 0 100n\nR2 n1 out 10k\nC2 out 0 10n\n")
          .take();
  SimplifyRequest request;
  request.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.options.f_start_hz = 10.0;
  request.options.f_stop_hz = 1e5;
  request.options.band_points = 5;
  const auto response = service.simplify(handle, request);
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = to_json(response.value());
  EXPECT_EQ(payload.find("type")->as_string(), "simplify");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  const Json* certificate = payload.find("certificate");
  ASSERT_NE(certificate, nullptr);
  EXPECT_EQ(certificate->find("points")->size(), 5u);
  // Certificate errors are hex-float strings: bit-exact across the wire
  // (the daemon-vs-CLI byte compare rides on this).
  EXPECT_EQ(certificate->find("max_relative_error")->as_string().substr(0, 2), "0x");
  const Json* terms = payload.find("denominator_terms");
  ASSERT_NE(terms, nullptr);
  ASSERT_GT(terms->size(), 0u);
  const Json& term = terms->items()[0];
  EXPECT_TRUE(term.find("symbols")->is_array());
  EXPECT_EQ(term.find("value")->find("mantissa")->as_string().substr(0, 2), "0x");

  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeResponse, RefgenPayloadShape) {
  const Service service;
  const CircuitHandle handle = service
                                   .compile_netlist("R1 in out 1k\nC1 out 0 1u\n")
                                   .take();
  const auto response =
      service.refgen(handle, {mna::TransferSpec::voltage_gain("in", "out"), {}});
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = to_json(response.value());
  EXPECT_EQ(payload.find("type")->as_string(), "refgen");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  EXPECT_TRUE(payload.find("complete")->as_bool());
  const Json* denominator = payload.find("reference")->find("denominator");
  ASSERT_NE(denominator, nullptr);
  EXPECT_EQ(denominator->find("coefficients")->size(),
            static_cast<std::size_t>(denominator->find("order_bound")->as_int()) + 1);
  // Coefficient values carry a bit-exact hex mantissa + binary exponent.
  const Json& c0 = denominator->find("coefficients")->items()[0];
  EXPECT_EQ(c0.find("value")->find("mantissa")->as_string().substr(0, 2), "0x");
  EXPECT_TRUE(c0.find("value")->find("exp2")->is_number());
  EXPECT_EQ(c0.find("status")->as_string(), "interpolated");
  EXPECT_EQ(payload.find("degraded"), nullptr);
  EXPECT_EQ(payload.find("degraded_points"), nullptr);
  EXPECT_EQ(payload.find("pivot_escalations"), nullptr);

  // The document survives a dump/parse cycle unchanged.
  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeRequest, ParamSweepGridRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kParamSweep;
  request.param_sweep.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.param_sweep.mode = ParamSweepRequest::Mode::kGrid;
  request.param_sweep.axes = {{"r1", 1e3, 1e4, 5, true}, {"c1", 1e-12, 4e-12, 4, false}};
  request.param_sweep.f_start_hz = 10.0;
  request.param_sweep.f_stop_hz = 1e7;
  request.param_sweep.points_per_decade = 3;
  request.param_sweep.threads = 4;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ParamSweepRequest& round = parsed.value().param_sweep;
  ASSERT_EQ(parsed.value().type, AnyRequest::Type::kParamSweep);
  EXPECT_EQ(round.mode, ParamSweepRequest::Mode::kGrid);
  ASSERT_EQ(round.axes.size(), 2u);
  EXPECT_EQ(round.axes[0].name, "r1");
  EXPECT_DOUBLE_EQ(round.axes[0].from, 1e3);
  EXPECT_DOUBLE_EQ(round.axes[0].to, 1e4);
  EXPECT_EQ(round.axes[0].count, 5);
  EXPECT_TRUE(round.axes[0].log_scale);
  EXPECT_FALSE(round.axes[1].log_scale);
  EXPECT_DOUBLE_EQ(round.f_start_hz, 10.0);
  EXPECT_EQ(round.points_per_decade, 3);
  EXPECT_EQ(round.threads, 4);
}

TEST(SerializeRequest, ParamSweepMonteCarloRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kParamSweep;
  request.param_sweep.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.param_sweep.mode = ParamSweepRequest::Mode::kMonteCarlo;
  request.param_sweep.dists = {{"gm", 1e-3, 0.05, mna::ParamDist::Kind::kGaussian},
                               {"cl", 1e-11, 0.1, mna::ParamDist::Kind::kUniform}};
  request.param_sweep.samples = 256;
  request.param_sweep.seed = 424242;

  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ParamSweepRequest& round = parsed.value().param_sweep;
  EXPECT_EQ(round.mode, ParamSweepRequest::Mode::kMonteCarlo);
  ASSERT_EQ(round.dists.size(), 2u);
  EXPECT_EQ(round.dists[0].name, "gm");
  EXPECT_EQ(round.dists[0].kind, mna::ParamDist::Kind::kGaussian);
  EXPECT_EQ(round.dists[1].kind, mna::ParamDist::Kind::kUniform);
  EXPECT_DOUBLE_EQ(round.dists[1].rel_sigma, 0.1);
  EXPECT_EQ(round.samples, 256);
  EXPECT_EQ(round.seed, 424242u);
}

TEST(SerializeRequest, ParamSweepStrictness) {
  // Unknown keys, bad modes, bad dists and bad seeds are all rejected.
  auto parse = [](const char* text) {
    const auto json = Json::parse(text);
    EXPECT_TRUE(json.ok());
    return request_from_json(json.value());
  };
  EXPECT_FALSE(parse(R"({"type":"param_sweep"})").ok());  // no spec/params
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"bogus","params":[{"name":"r","from":1,"to":2,"count":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2,"count":2,"zzz":1}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","nominal":1,"rel_sigma":0.1,
    "dist":"exotic"}],"samples":4})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","nominal":1,"rel_sigma":0.1}],
    "samples":4,"seed":-1})")
                   .ok());
  EXPECT_TRUE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2,"count":2}]})")
                  .ok());  // grid is the default mode
  // Range/nominal fields are required — a forgotten "from" must not
  // silently sweep from 0.
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","to":2,"count":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "params":[{"name":"r","from":1,"to":2}]})")
                   .ok());
  EXPECT_FALSE(parse(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
    "mode":"monte_carlo","params":[{"name":"r","rel_sigma":0.1}],"samples":4})")
                   .ok());
}

TEST(SerializeResponse, ParamSweepCarriesHexFloatPoints) {
  ParamSweepResponse response;
  response.result.names = {"r"};
  response.result.frequencies_hz = {1.0, 10.0};
  response.result.values = {1e3, 2e3};
  response.result.response = {{0.5, -0.25}, {0.1, 0.0}, {0.4, -0.2}, {0.05, 0.0}};
  response.result.ok = {1, 1};
  response.result.fresh_factorizations = 1;

  const Json payload = to_json(response);
  EXPECT_EQ(payload.find("type")->as_string(), "param_sweep");
  EXPECT_EQ(payload.find("fresh_factorizations")->as_number(), 1.0);
  ASSERT_EQ(payload.find("samples")->size(), 2u);
  const Json& sample = payload.find("samples")->items()[0];
  EXPECT_DOUBLE_EQ(sample.find("values")->items()[0].as_number(), 1e3);
  EXPECT_TRUE(sample.find("ok")->as_bool());
  const Json& point = sample.find("response")->items()[0];
  EXPECT_EQ(point.find("real")->as_string(), "0x1p-1");
  EXPECT_EQ(point.find("imag")->as_string(), "-0x1p-2");
  EXPECT_TRUE(point.find("magnitude_db")->is_number());
}

TEST(SerializeRequest, OpRoundTripAndStrictness) {
  AnyRequest request;
  request.type = AnyRequest::Type::kOp;
  EXPECT_EQ(to_json(request).dump(), R"({"type":"op"})");
  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().type, AnyRequest::Type::kOp);

  // A legacy "threads" member still parses (and changes nothing).
  const auto legacy = request_from_json(Json::parse(R"({"type":"op","threads":4})").take());
  ASSERT_TRUE(legacy.ok()) << legacy.status().to_string();
  EXPECT_EQ(legacy.value().type, AnyRequest::Type::kOp);

  // An op request has no spec or options; unknown keys are rejected.
  EXPECT_EQ(request_from_json(Json::parse(R"({"type":"op","spec":{"in":"a","out":"b"}})").take())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeRequest, LegacyExecutionMembersParseAndAreIgnored) {
  // Request files written when the replay kernel was a request knob, and
  // when op/transient carried "threads", keep parsing.
  for (const char* text : {
           R"({"type":"sweep","spec":{"in":"a","out":"b"},"kernel":"batched"})",
           R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"kernel":"scalar"}})",
           R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"kernel":"batched",
               "params":[{"name":"r","from":1,"to":2,"count":2}]})",
           R"({"type":"transient","tstop":1e-3,"threads":8})",
       }) {
    SCOPED_TRACE(text);
    const auto parsed = request_from_json(Json::parse(text).take());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    // The encoder no longer writes them back.
    const std::string encoded = to_json(parsed.value()).dump();
    EXPECT_EQ(encoded.find("kernel"), std::string::npos) << encoded;
  }
  AnyRequest transient;
  transient.type = AnyRequest::Type::kTransient;
  EXPECT_EQ(to_json(transient).find("threads"), nullptr);
}

TEST(SerializeRequest, BatchItemsRoundTrip) {
  AnyRequest request;
  request.type = AnyRequest::Type::kBatch;
  request.batch.threads = 3;
  request.batch.items.push_back({mna::TransferSpec::voltage_gain("in", "out"), {}});
  request.batch.items.push_back({mna::TransferSpec::voltage_gain("in", "mid"), {}});
  request.batch.items[0].options.sigma = 5;
  const auto parsed = request_from_json(to_json(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const BatchRequest& round = parsed.value().batch;
  ASSERT_EQ(round.items.size(), 2u);
  EXPECT_EQ(round.items[0].options.sigma, 5);
  EXPECT_EQ(round.items[1].spec.out_pos, "mid");
  EXPECT_EQ(round.threads, 3);
  EXPECT_EQ(to_json(parsed.value()).dump(), to_json(request).dump());
}

TEST(RequestKey, ExecutionKnobsShareAKeyAndOneUlpMisses) {
  RefgenRequest refgen{mna::TransferSpec::voltage_gain("in", "out"), {}};
  RefgenRequest threaded = refgen;
  threaded.options.threads = 8;
  EXPECT_EQ(request_key(to_json(refgen)), request_key(to_json(threaded)));
  EXPECT_EQ(request_key(to_json(refgen)).find("threads"), std::string::npos);

  RefgenRequest nudged = refgen;
  nudged.options.tuning_r = std::nextafter(refgen.options.tuning_r, 1.0);
  EXPECT_NE(request_key(to_json(refgen)), request_key(to_json(nudged)));

  SweepRequest sweep;
  sweep.spec = refgen.spec;
  SweepRequest sweep_threaded = sweep;
  sweep_threaded.threads = 8;
  EXPECT_EQ(request_key(to_json(sweep)), request_key(to_json(sweep_threaded)));
  SweepRequest sweep_nudged = sweep;
  sweep_nudged.f_start_hz = std::nextafter(sweep.f_start_hz, 0.0);
  EXPECT_NE(request_key(to_json(sweep)), request_key(to_json(sweep_nudged)));

  // Non-finite values stay distinct although JSON renders them all as null.
  TransientRequest inf_stop;
  inf_stop.tstop = std::numeric_limits<double>::infinity();
  TransientRequest nan_stop;
  nan_stop.tstop = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(request_key(to_json(inf_stop)), request_key(to_json(nan_stop)));

  // A poles_zeros request is keyed as its own type.
  const PolesZerosRequest poles{refgen.spec, refgen.options};
  EXPECT_NE(request_key(to_json(refgen)), request_key(to_json(poles)));
}

// --- One schema per request type ----------------------------------------------

/// A request document, the canonical encoding it decodes to, and that
/// encoding's cache key. The encodings are the response-cache and
/// reference-store keys of every deployed daemon: any drift here orphans
/// stored references, so the bytes are pinned.
struct PinnedEncoding {
  const char* document;
  const char* encoding;
  const char* key;
};

const PinnedEncoding kPinnedEncodings[] = {
    {R"({"type":"refgen","spec":{"kind":"transimpedance","in":"inp","in_neg":"inn","out":"vo","out_neg":"ref"},"options":{"sigma":9,"noise_decades":12.5,"tuning_r":-0.5,"max_iterations":40,"use_deflation":false,"conjugate_symmetry":false,"simultaneous_scaling":false,"geometric_mean_heuristic":true,"initial_f":2.5e9,"initial_g":1e-3,"no_progress_limit":5,"threads":4},"auto_linearize":true})",
     R"({"type":"refgen","spec":{"kind":"transimpedance","in":"inp","in_neg":"inn","out":"vo","out_neg":"ref"},"options":{"sigma":9,"tuning_r":-0.5,"max_iterations":4e+01,"threads":4}})",
     R"({"type":"refgen","spec":{"kind":"transimpedance","in":"inp","in_neg":"inn","out":"vo","out_neg":"ref"},"options":{"sigma":9,"tuning_r":-0.5,"max_iterations":4e+01}})"},
    {R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})",
     R"({"type":"poles_zeros","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64,"threads":1}})",
     R"({"type":"poles_zeros","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64}})"},
    {R"({"type":"sweep","spec":{"in":"inp","out":"vo"},"f_start_hz":10,"f_stop_hz":1e6,"points_per_decade":5,"threads":8,"auto_linearize":true})",
     R"({"type":"sweep","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"f_start_hz":1e+01,"f_stop_hz":1e+06,"points_per_decade":5,"threads":8})",
     R"({"type":"sweep","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"f_start_hz":1e+01,"f_stop_hz":1e+06,"points_per_decade":5})"},
    {R"({"type":"batch","items":[{"spec":{"in":"in","out":"out"},"options":{"sigma":5},"auto_linearize":true},{"spec":{"in":"in","out":"mid"}}],"threads":3})",
     R"({"type":"batch","items":[{"spec":{"kind":"voltage_gain","in":"in","in_neg":"0","out":"out","out_neg":"0"},"options":{"sigma":5,"tuning_r":0,"max_iterations":64,"threads":1}},{"spec":{"kind":"voltage_gain","in":"in","in_neg":"0","out":"mid","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64,"threads":1}}],"threads":3})",
     R"({"type":"batch","items":[{"spec":{"kind":"voltage_gain","in":"in","in_neg":"0","out":"out","out_neg":"0"},"options":{"sigma":5,"tuning_r":0,"max_iterations":64}},{"spec":{"kind":"voltage_gain","in":"in","in_neg":"0","out":"mid","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64}}]})"},
    {R"({"type":"param_sweep","spec":{"in":"vin","out":"vout"},"params":[{"name":"ccomp","from":1e-12,"to":4e-12,"count":4},{"name":"rload","from":1e3,"to":1e5,"count":3,"log":true}],"f_start_hz":1e3,"f_stop_hz":1e8,"points_per_decade":3,"threads":2})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"vin","in_neg":"0","out":"vout","out_neg":"0"},"mode":"grid","params":[{"name":"ccomp","from":1e-12,"to":4e-12,"count":4,"log":false},{"name":"rload","from":1e+03,"to":1e+05,"count":3,"log":true}],"f_start_hz":1e+03,"f_stop_hz":1e+08,"points_per_decade":3,"threads":2})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"vin","in_neg":"0","out":"vout","out_neg":"0"},"mode":"grid","params":[{"name":"ccomp","from":1e-12,"to":4e-12,"count":4,"log":false},{"name":"rload","from":1e+03,"to":1e+05,"count":3,"log":true}],"f_start_hz":1e+03,"f_stop_hz":1e+08,"points_per_decade":3})"},
    {R"({"type":"param_sweep","spec":{"in":"inp","out":"vo"},"mode":"monte_carlo","params":[{"name":"ccomp","nominal":30e-12,"rel_sigma":0.1},{"name":"rload","nominal":2e3,"rel_sigma":0.05,"dist":"uniform"}],"samples":256,"seed":9007199254740992,"auto_linearize":true})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"mode":"monte_carlo","samples":256,"seed":9007199254740992,"params":[{"name":"ccomp","nominal":3e-11,"rel_sigma":0.1,"dist":"gaussian"},{"name":"rload","nominal":2e+03,"rel_sigma":0.05,"dist":"uniform"}],"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01,"threads":1})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"mode":"monte_carlo","samples":256,"seed":9007199254740992,"params":[{"name":"ccomp","nominal":3e-11,"rel_sigma":0.1,"dist":"gaussian"},{"name":"rload","nominal":2e+03,"rel_sigma":0.05,"dist":"uniform"}],"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01})"},
    {R"({"type":"simplify","spec":{"in":"inp","out":"vo"},"error_budget":0.02,"f_start_hz":5,"f_stop_hz":5e4,"band_points":11,"prune":false,"prune_share":0.25,"max_terms":2147483647,"max_queue":1,"skip_factor":1e-4,"options":{"sigma":8,"threads":8},"auto_linearize":true})",
     R"({"type":"simplify","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"error_budget":0.02,"f_start_hz":5,"f_stop_hz":5e+04,"band_points":11,"max_terms":2147483647,"options":{"sigma":8,"tuning_r":0,"max_iterations":64,"threads":8}})",
     R"({"type":"simplify","spec":{"kind":"voltage_gain","in":"inp","in_neg":"0","out":"vo","out_neg":"0"},"error_budget":0.02,"f_start_hz":5,"f_stop_hz":5e+04,"band_points":11,"max_terms":2147483647,"options":{"sigma":8,"tuning_r":0,"max_iterations":64}})"},
    {R"({"type":"op"})",
     R"({"type":"op"})",
     R"({"type":"op"})"},
    {R"({"type":"transient","tstop":1e-3,"tstep":1e-6,"method":"bdf2","adaptive":false})",
     R"({"type":"transient","tstop":0.001,"tstep":1e-06,"method":"bdf2","adaptive":false})",
     R"({"type":"transient","tstop":0.001,"tstep":1e-06,"method":"bdf2","adaptive":false})"},
    {R"({"type":"sweep","spec":{"in":"a","out":"b"},"kernel":"batched"})",
     R"({"type":"sweep","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01,"threads":1})",
     R"({"type":"sweep","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01})"},
    {R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"kernel":"scalar"}})",
     R"({"type":"refgen","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64,"threads":1}})",
     R"({"type":"refgen","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"options":{"sigma":6,"tuning_r":0,"max_iterations":64}})"},
    {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"kernel":"batched","params":[{"name":"r","from":1,"to":2,"count":2}]})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"mode":"grid","params":[{"name":"r","from":1,"to":2,"count":2,"log":false}],"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01,"threads":1})",
     R"({"type":"param_sweep","spec":{"kind":"voltage_gain","in":"a","in_neg":"0","out":"b","out_neg":"0"},"mode":"grid","params":[{"name":"r","from":1,"to":2,"count":2,"log":false}],"f_start_hz":1,"f_stop_hz":1e+09,"points_per_decade":1e+01})"},
    {R"({"type":"op","threads":4})",
     R"({"type":"op"})",
     R"({"type":"op"})"},
    {R"({"type":"transient","tstop":2e-3,"threads":8,"method":"gear2"})",
     R"({"type":"transient","tstop":0.002,"tstep":0,"method":"bdf2","adaptive":true})",
     R"({"type":"transient","tstop":0.002,"tstep":0,"method":"bdf2","adaptive":true})"},
    {R"({"type":"transient","tstop":1e-3,"method":"euler"})",
     R"({"type":"transient","tstop":0.001,"tstep":0,"method":"bdf1","adaptive":true})",
     R"({"type":"transient","tstop":0.001,"tstep":0,"method":"bdf1","adaptive":true})"},
};

TEST(SerializeSchema, CanonicalEncodingsAndKeysArePinned) {
  for (const PinnedEncoding& pinned : kPinnedEncodings) {
    SCOPED_TRACE(pinned.document);
    const auto parsed = request_from_json(Json::parse(pinned.document).take());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const Json encoded = to_json(parsed.value());
    EXPECT_EQ(encoded.dump(), pinned.encoding);
    EXPECT_EQ(request_key(encoded), pinned.key);
    // The canonical form is a fixed point of decode + encode.
    const auto again = request_from_json(encoded);
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_EQ(to_json(again.value()).dump(), pinned.encoding);
  }
}

/// Random requests of one type whose members hold only values a JSON
/// document can carry: finite doubles across the whole exponent range,
/// ints across theirs, seeds up to 2^53, caps in [1, INT_MAX], and names
/// with quotes, escapes, control characters and multi-byte UTF-8.
class RandomRequests {
 public:
  explicit RandomRequests(std::uint64_t seed) : rng_(seed) {}

  AnyRequest next(AnyRequest::Type type) {
    AnyRequest request;
    request.type = type;
    switch (type) {
      case AnyRequest::Type::kRefgen: request.refgen = refgen(); break;
      case AnyRequest::Type::kPolesZeros: {
        const RefgenRequest shape = refgen();
        request.poles_zeros = {shape.spec, shape.options};
        break;
      }
      case AnyRequest::Type::kSweep:
        request.sweep.spec = spec();
        request.sweep.f_start_hz = real();
        request.sweep.f_stop_hz = real();
        request.sweep.points_per_decade = integer();
        request.sweep.threads = integer();
        break;
      case AnyRequest::Type::kBatch:
        for (std::uint64_t n = rng_.uniform_index(4); n > 0; --n) {
          request.batch.items.push_back(refgen());
        }
        request.batch.threads = integer();
        break;
      case AnyRequest::Type::kParamSweep: request.param_sweep = param_sweep(); break;
      case AnyRequest::Type::kSimplify: request.simplify = simplify(); break;
      case AnyRequest::Type::kOp: break;
      case AnyRequest::Type::kTransient:
        request.transient.tstop = real();
        request.transient.tstep = real();
        request.transient.method = pick({transient::Method::kTrapezoidal,
                                         transient::Method::kBdf1, transient::Method::kBdf2});
        request.transient.adaptive = flag();
        break;
    }
    return request;
  }

 private:
  template <typename T>
  T pick(std::initializer_list<T> values) {
    return values.begin()[rng_.uniform_index(values.size())];
  }
  bool flag() { return (rng_.next_u64() & 1u) != 0; }
  double real() {
    switch (rng_.uniform_index(5)) {
      case 0: return pick({0.0, -0.0, std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(), 1e-12, 0.1});
      case 1: return rng_.sign() * rng_.log_uniform(1e-300, 1e300);
      case 2: return rng_.uniform(-10.0, 10.0);
      default: return static_cast<double>(integer());
    }
  }
  int integer() {
    if (flag()) return static_cast<int>(rng_.uniform_index(100)) - 10;
    return pick({INT_MIN, INT_MAX, 0, static_cast<int>(static_cast<std::uint32_t>(rng_.next_u64()))});
  }
  std::string name() {
    std::string out;
    for (std::uint64_t n = rng_.uniform_index(6); n > 0; --n) {
      out += pick<const char*>({"a", "Z", "0", "_", " ", "\"", "\\", "/", "\n", "\t", "\x01",
                                "\xc2\xb5", "\xe2\x86\x92"});
    }
    return out;
  }
  mna::TransferSpec spec() {
    mna::TransferSpec spec;
    spec.kind = pick({mna::TransferSpec::Kind::VoltageGain,
                      mna::TransferSpec::Kind::Transimpedance});
    spec.in_pos = name();
    spec.in_neg = name();
    spec.out_pos = name();
    spec.out_neg = name();
    return spec;
  }
  refgen::AdaptiveOptions options() {
    refgen::AdaptiveOptions options;
    options.sigma = integer();
    options.tuning_r = real();
    options.max_iterations = integer();
    options.threads = integer();
    return options;
  }
  RefgenRequest refgen() { return {spec(), options()}; }
  ParamSweepRequest param_sweep() {
    ParamSweepRequest sweep;
    sweep.spec = spec();
    // Only the entries of the sweep's mode are on the wire.
    sweep.mode = pick({ParamSweepRequest::Mode::kGrid, ParamSweepRequest::Mode::kMonteCarlo});
    const bool grid = sweep.mode == ParamSweepRequest::Mode::kGrid;
    for (std::uint64_t n = 1 + rng_.uniform_index(3); n > 0; --n) {
      if (grid) {
        sweep.axes.push_back({name(), real(), real(), integer(), flag()});
      } else {
        sweep.dists.push_back({name(), real(), real(),
                               pick({mna::ParamDist::Kind::kGaussian,
                                     mna::ParamDist::Kind::kUniform})});
      }
    }
    if (!grid) {
      sweep.samples = integer();
      sweep.seed = flag() ? rng_.next_u64() >> 11 : std::uint64_t{1} << 53;
    }
    sweep.f_start_hz = real();
    sweep.f_stop_hz = real();
    sweep.points_per_decade = integer();
    sweep.threads = integer();
    return sweep;
  }
  SimplifyRequest simplify() {
    SimplifyRequest simplify;
    simplify.spec = spec();
    refgen::SimplifyOptions& options = simplify.options;
    options.error_budget = real();
    options.f_start_hz = real();
    options.f_stop_hz = real();
    options.band_points = integer();
    options.max_terms_per_coefficient = 1 + rng_.uniform_index(INT_MAX);
    options.engine = this->options();
    return simplify;
  }

  support::Rng rng_;
};

/// The per-type encoder of `request`'s member.
Json to_json_by_type(const AnyRequest& request) {
  switch (request.type) {
    case AnyRequest::Type::kRefgen: return to_json(request.refgen);
    case AnyRequest::Type::kSweep: return to_json(request.sweep);
    case AnyRequest::Type::kPolesZeros: return to_json(request.poles_zeros);
    case AnyRequest::Type::kBatch: return to_json(request.batch);
    case AnyRequest::Type::kParamSweep: return to_json(request.param_sweep);
    case AnyRequest::Type::kSimplify: return to_json(request.simplify);
    case AnyRequest::Type::kOp: return to_json(request.op);
    case AnyRequest::Type::kTransient: return to_json(request.transient);
  }
  return Json();
}

TEST(SerializeSchema, RandomRequestsOfEveryTypeRoundTripByteIdentically) {
  RandomRequests random(0x5eed);
  for (int i = 0; i < 2400; ++i) {
    const AnyRequest request = random.next(static_cast<AnyRequest::Type>(i % 8));
    const std::string encoded = to_json(request).dump();
    ASSERT_EQ(to_json_by_type(request).dump(), encoded);
    // Through the text form, as a request crosses the wire.
    const auto document = Json::parse(encoded);
    ASSERT_TRUE(document.ok()) << document.status().to_string() << "\n" << encoded;
    const auto parsed = request_from_json(document.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << encoded;
    ASSERT_EQ(parsed.value().type, request.type);
    ASSERT_EQ(to_json(parsed.value()).dump(), encoded);
  }
}

Status decode_status(const char* text) {
  const auto json = Json::parse(text);
  EXPECT_TRUE(json.ok()) << text;
  const auto parsed = request_from_json(json.value());
  return parsed.ok() ? Status() : parsed.status();
}

TEST(SerializeSchema, GridSweepsCarryNoSamplesOrSeed) {
  // Monte-Carlo members on a grid sweep are unknown keys, not ignored.
  for (const char* member : {R"("samples":4)", R"("seed":7)", R"("samples":0)"}) {
    const std::string text =
        std::string(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"params":[)"
                    R"({"name":"r","from":1,"to":2,"count":2}],)") +
        member + "}";
    SCOPED_TRACE(text);
    const Status status = decode_status(text.c_str());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("unknown key"), std::string::npos) << status.message();
  }
  EXPECT_TRUE(decode_status(R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
      "mode":"monte_carlo","params":[{"name":"r","nominal":1,"rel_sigma":0.1}],
      "samples":4,"seed":7})")
                  .ok());
}

TEST(SerializeSchema, TransientMethodMustNameAMethod) {
  const Status empty = decode_status(R"({"type":"transient","tstop":1e-3,"method":""})");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.message(),
            "request: unknown method \"\" (expected trap, trapezoidal, bdf1, be, euler, bdf2 "
            "or gear2)");
  // Every token transient::method_from_name accepts decodes to its method.
  for (const char* name : {"trap", "trapezoidal", "bdf1", "be", "euler", "bdf2", "gear2"}) {
    const std::string text =
        std::string(R"({"type":"transient","tstop":1e-3,"method":")") + name + "\"}";
    const auto parsed = request_from_json(Json::parse(text).take());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().transient.method, transient::method_from_name(name)) << name;
  }
}

TEST(SerializeSchema, SimplifyTermCapRangesOverOneToIntMax) {
  const std::string prefix = R"({"type":"simplify","spec":{"in":"a","out":"b"},"max_terms":)";
  for (const char* value : {"1", "2147483647"}) {
    const auto parsed = request_from_json(Json::parse(prefix + value + "}").take());
    ASSERT_TRUE(parsed.ok()) << value << ": " << parsed.status().to_string();
    EXPECT_EQ(parsed.value().simplify.options.max_terms_per_coefficient, std::stoull(value));
  }
  for (const char* value : {"0", "-1", "2147483648", "1.5", "-0", "1e300", "\"5\"", "null"}) {
    const Status status = decode_status((prefix + value + "}").c_str());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(status.message(), "request: \"max_terms\" must be an integer in [1, 2147483647]")
        << value;
  }
}

TEST(SerializeSchema, LegacyMembersChangeNeitherEncodingNorKey) {
  // The 13 members that left the wire, each at a non-default value: every
  // document must encode, and key, exactly as it does without them.
  // "auto_linearize" rides every AC-family type, at any value.
  const std::string legacy_options =
      R"("noise_decades":10,"use_deflation":false,"conjugate_symmetry":false,)"
      R"("simultaneous_scaling":false,"geometric_mean_heuristic":true,"initial_f":2.5e9,)"
      R"("initial_g":1e-3,"no_progress_limit":5)";
  const std::string legacy_simplify =
      R"("prune":false,"prune_share":0.9,"max_queue":1,"skip_factor":1e-4)";
  const struct {
    std::string with_legacy;
    std::string without;
  } cases[] = {
      {R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"sigma":7,)" + legacy_options +
           R"(},"auto_linearize":true})",
       R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"sigma":7}})"},
      {R"({"type":"poles_zeros","spec":{"in":"a","out":"b"},"options":{)" + legacy_options +
           R"(},"auto_linearize":false})",
       R"({"type":"poles_zeros","spec":{"in":"a","out":"b"}})"},
      {R"({"type":"batch","items":[{"spec":{"in":"a","out":"b"},"options":{)" + legacy_options +
           R"(},"auto_linearize":true},{"spec":{"in":"a","out":"c"},"auto_linearize":1}]})",
       R"({"type":"batch","items":[{"spec":{"in":"a","out":"b"}},{"spec":{"in":"a","out":"c"}}]})"},
      {R"({"type":"simplify","spec":{"in":"a","out":"b"},)" + legacy_simplify +
           R"(,"options":{)" + legacy_options + R"(},"auto_linearize":true})",
       R"({"type":"simplify","spec":{"in":"a","out":"b"}})"},
      {R"({"type":"sweep","spec":{"in":"a","out":"b"},"auto_linearize":true,"kernel":"scalar"})",
       R"({"type":"sweep","spec":{"in":"a","out":"b"}})"},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"auto_linearize":true,)"
       R"("params":[{"name":"r","from":1,"to":2,"count":2}]})",
       R"({"type":"param_sweep","spec":{"in":"a","out":"b"},)"
       R"("params":[{"name":"r","from":1,"to":2,"count":2}]})"},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"mode":"monte_carlo",)"
       R"("params":[{"name":"r","nominal":1,"rel_sigma":0.1}],"auto_linearize":"yes"})",
       R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"mode":"monte_carlo",)"
       R"("params":[{"name":"r","nominal":1,"rel_sigma":0.1}]})"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.with_legacy);
    const auto legacy = request_from_json(Json::parse(c.with_legacy).take());
    ASSERT_TRUE(legacy.ok()) << legacy.status().to_string();
    const auto plain = request_from_json(Json::parse(c.without).take());
    ASSERT_TRUE(plain.ok()) << plain.status().to_string();
    EXPECT_EQ(to_json(legacy.value()).dump(), to_json(plain.value()).dump());
    EXPECT_EQ(request_key(to_json(legacy.value())), request_key(to_json(plain.value())));
  }
}

TEST(SerializeSchema, FailuresNameTheObjectTheyAreIn) {
  const struct {
    const char* document;
    const char* message;
  } cases[] = {
      {R"([1])", "request: expected a JSON object"},
      {R"({"type":"bogus"})",
       "request: unknown type \"bogus\" (expected refgen, sweep, poles_zeros, batch, "
       "param_sweep, simplify, op or transient)"},
      {R"({"type":"refgen","spec":{"in":"a"}})", "spec: missing required key \"out\""},
      {R"({"type":"refgen","spec":{"in":"a","out":"b"},"options":{"sigma":6.5}})",
       "options: \"sigma\" must be an integer in [-2147483648, 2147483647]"},
      {R"({"type":"batch","items":[{"spec":{"in":"a","out":"b"},"bogus":1}]})",
       "batch item: unknown key \"bogus\""},
      {R"({"type":"batch"})", "request: missing required key \"items\""},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"params":[]})",
       "request: \"params\" must be a non-empty array"},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},
          "params":[{"name":"r","from":1,"to":2,"count":"2"}]})",
       "param axis: \"count\" must be an integer in [-2147483648, 2147483647]"},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"mode":"monte_carlo",
          "params":[{"name":"r","nominal":1,"rel_sigma":0.1,"dist":"cauchy"}]})",
       "param dist: unknown dist \"cauchy\" (expected gaussian or uniform)"},
      {R"({"type":"param_sweep","spec":{"in":"a","out":"b"},"mode":"monte_carlo",
          "params":[{"name":"r","nominal":1,"rel_sigma":0.1}],"seed":9007199254740994})",
       "request: \"seed\" must be an integer in [0, 9007199254740992]"},
      {R"({"type":"transient","tstep":1e-6})", "request: missing required key \"tstop\""},
      {R"({"type":"op","spec":{"in":"a","out":"b"}})", "request: unknown key \"spec\""},
  };
  for (const auto& c : cases) {
    const Status status = decode_status(c.document);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.document;
    EXPECT_EQ(status.message(), c.message) << c.document;
  }
}

TEST(SerializeResponse, OpPayloadShape) {
  const Service service;
  const CircuitHandle handle =
      service
          .compile_netlist(
              ".model nd d is=1e-14\nV1 in 0 dc 5\nR1 in d 1k\nD1 d 0 nd\n")
          .take();
  const auto response = service.op(handle, {});
  ASSERT_TRUE(response.ok()) << response.status().to_string();

  const Json payload = to_json(response.value());
  EXPECT_EQ(payload.find("type")->as_string(), "op");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "ok");
  EXPECT_GT(payload.find("newton_iterations")->as_int(), 0);
  EXPECT_EQ(payload.find("fresh_factorizations")->as_number(), 1.0);
  ASSERT_GT(payload.find("nodes")->size(), 0u);
  const Json& node = payload.find("nodes")->items()[0];
  // Voltages carry a bit-exact hex form next to the human-readable one —
  // the 1-vs-8-thread byte compare in the CLI smoke rides on this.
  const std::string v = node.find("v")->as_string();
  EXPECT_TRUE(v.rfind("0x", 0) == 0 || v.rfind("-0x", 0) == 0) << v;
  ASSERT_EQ(payload.find("devices")->size(), 1u);
  EXPECT_EQ(payload.find("devices")->items()[0].find("kind")->as_string(), "diode");
  EXPECT_EQ(payload.find("degraded"), nullptr);
  EXPECT_EQ(payload.find("degraded_points"), nullptr);
  EXPECT_EQ(payload.find("pivot_escalations"), nullptr);

  const auto reparsed = Json::parse(payload.dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), payload.dump());
}

TEST(SerializeResponse, ErrorEnvelope) {
  const Json payload = error_response(
      "sweep", Status::error(StatusCode::kSingularSystem, "no pivot"));
  EXPECT_EQ(payload.find("type")->as_string(), "sweep");
  EXPECT_EQ(payload.find("status")->find("code")->as_string(), "singular_system");
  EXPECT_EQ(payload.find("points"), nullptr);
}

}  // namespace
}  // namespace symref::api
