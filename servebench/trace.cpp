// In-process traced replay of one servebench workload.
//
//   servebench_trace <workload.json> <spans.json>
//
// run.py writes the workload file: the circuits, the warm-up requests, the
// request stream of the measured run (same seed, same order) and the
// in-flight depth. The replay runs in one process, with no daemon, in four
// passes, each recording spans around public entry points:
//
//   compile  netlist parse / elaborate / canonicalize, dc::solve_op +
//            dc::linearize_at, mna::NodalSystem + CofactorEvaluator;
//   service  each submit line decoded (Json::parse + request_from_json),
//            served by api::Service and encoded (to_json + Json::dump);
//   jobs     the stream through api::JobManager at the workload's depth,
//            recording JobInfo::seconds minus the response's seconds;
//   layers   every computed stream request re-run through its engine entry
//            point: the adaptive engine (one span per iteration from
//            on_iteration timestamps), evaluate_batch at each iteration's
//            (f, g, points) on 1 and 3 lanes, AcSimulator::bode,
//            run_param_sweep, find_roots and TransientSolver::solve.
//
// Spans (name, circuit, request index, parent, start, end, count) stay in
// memory and are written as one JSON document at exit. Warm-up requests
// (run.py lists the workload's prefill among them) carry negative request
// indices (-1 - i).
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/jobs.h"
#include "api/json.h"
#include "api/serialize.h"
#include "api/service.h"
#include "dc/linearize.h"
#include "dc/newton.h"
#include "interp/interpolator.h"
#include "mna/ac.h"
#include "mna/nodal.h"
#include "mna/param_sweep.h"
#include "netlist/canonical.h"
#include "netlist/parser.h"
#include "numeric/roots.h"
#include "refgen/adaptive.h"
#include "support/thread_pool.h"
#include "transient/transient.h"

namespace {

namespace api = symref::api;
namespace dc = symref::dc;
namespace mna = symref::mna;
namespace netlist = symref::netlist;
namespace refgen = symref::refgen;
using api::AnyRequest;
using api::Json;
using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string circuit;
    long request = 0;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    double count = 0.0;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  void begin(std::string name, long request, std::string circuit = {}) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(circuit), request, parent, now_us(), 0.0, 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void end(double count = 0.0) {
    Span& span = spans_.at(static_cast<std::size_t>(stack_.back()));
    span.end_us = now_us();
    span.count = count;
    stack_.pop_back();
  }

  /// A finished child of the open span, from timestamps taken elsewhere.
  void add(std::string name, long request, double start_us, double end_us, double count) {
    spans_.push_back({std::move(name), {}, request, stack_.empty() ? -1 : stack_.back(),
                      start_us, end_us, count});
  }

  [[nodiscard]] Json to_json() const {
    Json out = Json::array();
    for (const Span& span : spans_) {
      Json entry = Json::object();
      entry.set("name", span.name);
      entry.set("circuit", span.circuit);
      entry.set("request", static_cast<double>(span.request));
      entry.set("parent", span.parent);
      entry.set("start_us", span.start_us);
      entry.set("end_us", span.end_us);
      entry.set("count", span.count);
      out.push_back(std::move(entry));
    }
    return out;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One request of the replayed stream (warm-ups first, index -1 - i).
struct Item {
  long index = 0;
  std::string circuit;
  Json request;
};

/// The compile pass's products, kept for the layers pass. Never moved once
/// built: `system` and `simulator` refer to the circuits beside them.
struct Layered {
  std::string name;
  netlist::NetlistTemplate netlist_template;
  netlist::Circuit original;
  netlist::Circuit linear;
  netlist::Circuit canonical;
  mna::TransferSpec spec;  // meaningful when evaluator is set
  std::unique_ptr<mna::NodalSystem> system;
  std::unique_ptr<mna::CofactorEvaluator> evaluator;
  std::unique_ptr<mna::AcSimulator> simulator;
};

template <typename T>
T take_or_throw(api::Result<T> result, const std::string& what) {
  if (!result.ok()) throw std::runtime_error(what + ": " + result.status().to_string());
  return result.take();
}

api::JobOutcome serve(const api::Service& service, const api::CircuitHandle& handle,
                      const AnyRequest& request) {
  api::JobOutcome out;
  out.type = request.type;
  auto keep = [&out](auto result, auto& slot) {
    if (result.ok()) {
      slot = result.take();
    } else {
      out.status = result.status();
    }
  };
  switch (request.type) {
    case AnyRequest::Type::kRefgen: keep(service.refgen(handle, request.refgen), out.refgen); break;
    case AnyRequest::Type::kSweep: keep(service.sweep(handle, request.sweep), out.sweep); break;
    case AnyRequest::Type::kPolesZeros:
      keep(service.poles_zeros(handle, request.poles_zeros), out.poles_zeros);
      break;
    case AnyRequest::Type::kParamSweep:
      keep(service.param_sweep(handle, request.param_sweep), out.param_sweep);
      break;
    case AnyRequest::Type::kOp: keep(service.op(handle, request.op), out.op); break;
    case AnyRequest::Type::kTransient:
      keep(service.transient(handle, request.transient), out.transient);
      break;
    default: throw std::runtime_error("request type not replayed by the tracer");
  }
  return out;
}

std::pair<bool, double> cache_and_seconds(const api::JobOutcome& outcome) {
  switch (outcome.type) {
    case AnyRequest::Type::kRefgen: return {outcome.refgen.from_cache, outcome.refgen.seconds};
    case AnyRequest::Type::kSweep: return {outcome.sweep.from_cache, outcome.sweep.seconds};
    case AnyRequest::Type::kPolesZeros:
      return {outcome.poles_zeros.from_cache, outcome.poles_zeros.seconds};
    case AnyRequest::Type::kParamSweep:
      return {outcome.param_sweep.from_cache, outcome.param_sweep.seconds};
    case AnyRequest::Type::kOp: return {outcome.op.from_cache, outcome.op.seconds};
    case AnyRequest::Type::kTransient:
      return {outcome.transient.from_cache, outcome.transient.seconds};
    default: return {false, 0.0};
  }
}

std::string submit_line(long index, const std::string& circuit_id, const Json& request) {
  Json params = Json::object();
  params.set("circuit_id", circuit_id);
  params.set("request", request);
  Json line = Json::object();
  line.set("id", static_cast<double>(index));
  line.set("method", "submit");
  line.set("params", std::move(params));
  return line.dump();
}

/// Pass 1: each circuit through the layers Service::compile_netlist chains.
std::unique_ptr<Layered> compile_layers(Tracer& tracer, const std::string& name,
                                        const std::string& text, const Json* spec_json) {
  auto layered = std::make_unique<Layered>();
  layered->name = name;
  tracer.begin("compile", -1, name);
  tracer.begin("netlist.parse", -1, name);
  layered->netlist_template = netlist::parse_netlist_template(text);
  tracer.end();
  tracer.begin("netlist.elaborate", -1, name);
  layered->original = layered->netlist_template.elaborate();
  tracer.end();
  if (layered->original.has_devices()) {
    tracer.begin("dc.op", -1, name);
    const dc::OpResult op = dc::solve_op(layered->original);
    tracer.end(op.newton_iterations);
    tracer.begin("dc.linearize", -1, name);
    layered->linear = dc::linearize_at(layered->original, op);
    tracer.end();
  } else {
    layered->linear = layered->original;
  }
  tracer.begin("netlist.canonicalize", -1, name);
  layered->canonical = netlist::canonicalize(layered->linear);
  tracer.end();
  tracer.begin("mna.build", -1, name);
  layered->system = std::make_unique<mna::NodalSystem>(layered->canonical);
  if (spec_json != nullptr) {
    layered->spec = take_or_throw(api::spec_from_json(*spec_json), name);
    layered->evaluator = std::make_unique<mna::CofactorEvaluator>(*layered->system, layered->spec);
  }
  tracer.end();
  tracer.end();
  layered->simulator = std::make_unique<mna::AcSimulator>(layered->linear);
  return layered;
}

/// Pass 4 for one computed request: its work again, through the entry
/// points under api::Service.
void rerun_layers(Tracer& tracer, Layered& layered, const Item& item, const AnyRequest& request,
                  symref::support::ThreadPool& pool3) {
  const long index = item.index;
  const bool engine = request.type == AnyRequest::Type::kRefgen ||
                      request.type == AnyRequest::Type::kPolesZeros;
  if (engine) {
    const bool poles = request.type == AnyRequest::Type::kPolesZeros;
    const mna::TransferSpec& spec = poles ? request.poles_zeros.spec : request.refgen.spec;
    refgen::AdaptiveOptions options = poles ? request.poles_zeros.options : request.refgen.options;
    double iteration_start = 0.0;
    options.on_iteration = [&](const refgen::IterationRecord& record) {
      const double now = tracer.now_us();
      tracer.add("refgen.iteration", index, iteration_start, now, record.evaluations);
      iteration_start = now;
    };
    tracer.begin("refgen.engine", index, layered.name);
    iteration_start = tracer.now_us();
    refgen::AdaptiveScalingEngine run(*layered.system, spec, options, layered.evaluator.get());
    const refgen::AdaptiveResult result = run.run();
    tracer.end(result.total_evaluations);

    // The engine's evaluations again, at each iteration's recorded scaling
    // and point count, on one lane and on a three-lane pool.
    for (const bool threaded : {false, true}) {
      tracer.begin(threaded ? "mna.evaluate_t3" : "mna.evaluate", index, layered.name);
      double evaluations = 0.0;
      for (const refgen::IterationRecord& record : result.iterations) {
        const symref::interp::UnitCircleSampler sampler(record.points, options.conjugate_symmetry);
        evaluations += static_cast<double>(
            layered.evaluator
                ->evaluate_batch(sampler.evaluation_points(), record.f_scale, record.g_scale,
                                 threaded ? &pool3 : nullptr)
                .size());
      }
      tracer.end(evaluations);
    }
    if (poles) {
      tracer.begin("numeric.roots", index, layered.name);
      const auto zeros = symref::numeric::find_roots(result.reference.numerator().polynomial());
      const auto roots = symref::numeric::find_roots(result.reference.denominator().polynomial());
      tracer.end(static_cast<double>(zeros.roots.size() + roots.roots.size()));
    }
    return;
  }
  switch (request.type) {
    case AnyRequest::Type::kSweep: {
      const api::SweepRequest& sweep = request.sweep;
      tracer.begin("mna.bode", index, layered.name);
      const auto points = layered.simulator->bode(sweep.spec, sweep.f_start_hz, sweep.f_stop_hz,
                                                  sweep.points_per_decade, sweep.threads);
      tracer.end(static_cast<double>(points.size()));
      break;
    }
    case AnyRequest::Type::kParamSweep: {
      const api::ParamSweepRequest& sweep = request.param_sweep;
      const mna::ParamSamplePlan plan =
          sweep.mode == api::ParamSweepRequest::Mode::kGrid
              ? mna::grid_samples(sweep.axes)
              : mna::monte_carlo_samples(sweep.dists, sweep.samples, sweep.seed);
      mna::ParamSweepOptions options;
      options.spec = sweep.spec;
      options.f_start_hz = sweep.f_start_hz;
      options.f_stop_hz = sweep.f_stop_hz;
      options.points_per_decade = sweep.points_per_decade;
      options.threads = sweep.threads;
      tracer.begin("mna.param_sweep", index, layered.name);
      const mna::ParamSweepResult result =
          mna::run_param_sweep(layered.netlist_template, plan, options);
      tracer.end(static_cast<double>(result.ok.size()));
      break;
    }
    case AnyRequest::Type::kTransient: {
      symref::transient::TransientOptions options;
      options.method = request.transient.method;
      options.tstop = request.transient.tstop;
      options.tstep = request.transient.tstep;
      options.adaptive = request.transient.adaptive;
      tracer.begin("transient.solve", index, layered.name);
      symref::transient::TransientSolver solver(options);
      const symref::transient::TransientResult result = solver.solve(layered.original);
      tracer.end(result.steps);
      break;
    }
    default: break;  // op: served from the compile-time bias, nothing to re-run
  }
}

int run(const std::string& input_path, const std::string& output_path) {
  std::ifstream input(input_path);
  std::stringstream text;
  text << input.rdbuf();
  const Json workload = take_or_throw(Json::parse(text.str()), input_path);
  const int depth = workload.find("depth")->as_int(1);
  const int workers = workload.find("workers")->as_int(3);

  std::vector<Item> items;
  long warm_index = -1;
  for (const Json& entry : workload.find("warmup")->items()) {
    items.push_back({warm_index--, entry.find("circuit")->as_string(), *entry.find("request")});
  }
  long stream_index = 0;
  for (const Json& entry : workload.find("stream")->items()) {
    items.push_back({stream_index++, entry.find("circuit")->as_string(), *entry.find("request")});
  }

  Tracer tracer;

  // --- Pass 1: compile, layer by layer -------------------------------------
  std::map<std::string, std::unique_ptr<Layered>> layers;
  for (const Json& circuit : workload.find("circuits")->items()) {
    const std::string& name = circuit.find("name")->as_string();
    const Json* spec = circuit.find("spec");
    layers[name] = compile_layers(tracer, name, circuit.find("netlist")->as_string(),
                                  spec != nullptr && spec->is_object() ? spec : nullptr);
  }

  // --- Pass 2: decode, serve, encode, in stream order ------------------------
  std::map<long, bool> computed;
  {
    const api::Service service;
    std::map<std::string, api::CircuitHandle> handles;
    for (const Json& circuit : workload.find("circuits")->items()) {
      const std::string& name = circuit.find("name")->as_string();
      tracer.begin("service.compile", -1, name);
      handles[name] = take_or_throw(
          service.compile_netlist(circuit.find("netlist")->as_string(), name), name);
      tracer.end();
    }
    for (const Item& item : items) {
      const std::string line = submit_line(item.index, item.circuit, item.request);
      tracer.begin("request", item.index, item.circuit);
      tracer.begin("protocol.decode", item.index, item.circuit);
      const Json parsed = take_or_throw(Json::parse(line), "submit line");
      const AnyRequest request = take_or_throw(
          api::request_from_json(*parsed.find("params")->find("request")), "request");
      tracer.end();
      tracer.begin("service.call", item.index, item.circuit);
      const api::JobOutcome outcome = serve(service, handles.at(item.circuit), request);
      tracer.end();
      tracer.begin("serialize.encode", item.index, item.circuit);
      const std::string bytes = api::to_json(outcome).dump();
      tracer.end(static_cast<double>(bytes.size()));
      tracer.end();
      if (!outcome.status.ok()) {
        throw std::runtime_error("request " + std::to_string(item.index) + " on " + item.circuit +
                                 ": " + outcome.status.to_string());
      }
      computed[item.index] = !cache_and_seconds(outcome).first;
    }
  }

  // --- Pass 3: the stream through a JobManager at the workload's depth -------
  {
    const api::Service service;
    api::JobManager jobs(service, workers);
    std::map<std::string, api::CircuitHandle> handles;
    for (const Json& circuit : workload.find("circuits")->items()) {
      const std::string& name = circuit.find("name")->as_string();
      handles[name] = take_or_throw(
          service.compile_netlist(circuit.find("netlist")->as_string(), name), name);
    }
    std::deque<std::pair<long, api::JobId>> window;
    auto retire = [&] {
      const auto [index, id] = window.front();
      window.pop_front();
      const api::JobOutcome outcome = take_or_throw(jobs.wait(id), "job wait");
      const api::JobInfo info = take_or_throw(jobs.poll(id), "job poll");
      const double service_seconds = cache_and_seconds(outcome).second;
      const double now = tracer.now_us();
      tracer.add("jobs.queue", index, now - (info.seconds - service_seconds) * 1e6, now, 0.0);
    };
    for (const Item& item : items) {
      const AnyRequest request =
          take_or_throw(api::request_from_json(item.request), "request");
      if (item.index < 0) {
        (void)jobs.wait(jobs.submit(handles.at(item.circuit), request));
        continue;
      }
      if (static_cast<int>(window.size()) == depth) retire();
      window.emplace_back(item.index, jobs.submit(handles.at(item.circuit), request));
    }
    while (!window.empty()) retire();
  }

  // --- Pass 4: computed requests through their engine entry points ----------
  {
    symref::support::ThreadPool pool3(3);
    for (const Item& item : items) {
      if (item.index < 0 || !computed[item.index]) continue;
      const AnyRequest request =
          take_or_throw(api::request_from_json(item.request), "request");
      rerun_layers(tracer, *layers.at(item.circuit), item, request, pool3);
    }
  }

  Json out = Json::object();
  out.set("spans", tracer.to_json());
  std::ofstream output(output_path);
  output << out.dump() << '\n';
  if (!output) throw std::runtime_error("cannot write " + output_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: servebench_trace <workload.json> <spans.json>\n");
    return 2;
  }
  try {
    return run(argv[1], argv[2]);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "servebench_trace: %s\n", error.what());
    return 1;
  }
}
