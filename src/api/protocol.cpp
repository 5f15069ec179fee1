#include "api/protocol.h"

#include <cctype>
#include <cmath>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "api/wire.h"
#include "support/timer.h"

namespace symref::api::protocol {

namespace {

using wire::Need;

/// Attempt budget of submits that do not specify "max_attempts".
constexpr int kDefaultMaxAttempts = 3;

/// The params of a method that takes one required string member (strict,
/// like every method's params).
Status one_string(const Json& params, const char* key, std::string* out) {
  wire::Decoder in(params, "params");
  in.field(key, *out, Need::kRequired);
  return in.finish();
}

/// Reference-store key of one (compiled netlist, request) pair: the same
/// request_key the Service response caches use.
std::string store_key(const std::string& content_key, const AnyRequest& request) {
  return content_key + "-" + support::hex64(support::fnv1a64(request_key(to_json(request))));
}

Json circuit_info(const std::string& id, const CircuitHandle& handle) {
  Json out = Json::object();
  out.set("circuit_id", id);
  out.set("name", handle.name());
  out.set("nodes", handle.circuit().node_count());
  out.set("elements", static_cast<double>(handle.circuit().element_count()));
  out.set("dim", handle.dim());
  out.set("order_bound", handle.order_bound());
  return out;
}

Json job_info_json(const JobInfo& info) {
  Json out = Json::object();
  out.set("job_id", job_id_token(info.id));
  out.set("state", job_state_name(info.state));
  out.set("type", request_type_name(info.type));
  out.set("circuit", info.circuit);
  out.set("iterations", info.iterations);
  out.set("cancel_requested", info.cancel_requested);
  out.set("seconds", info.seconds);
  out.set("attempts", info.attempts);
  return out;
}

}  // namespace

std::string job_id_token(JobId id) { return std::string("j").append(std::to_string(id)); }

Result<JobId> parse_job_id(const std::string& token) {
  // "j<decimal>", at most 19 digits (fits uint64 for every id we assign).
  if (token.size() < 2 || token.size() > 20 || token[0] != 'j') {
    return Status::error(StatusCode::kInvalidArgument,
                         "bad job_id \"" + token + "\" (expected \"j<N>\")");
  }
  JobId value = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) {
      return Status::error(StatusCode::kInvalidArgument,
                           "bad job_id \"" + token + "\" (expected \"j<N>\")");
    }
    value = value * 10 + static_cast<JobId>(token[i] - '0');
  }
  return value;
}

ServerCore::ServerCore(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      store_(options_.store_dir.empty()
                 ? nullptr
                 : std::make_unique<support::BlobStore>(options_.store_dir)),
      jobs_(service_, options_.workers, options_.max_queue_depth) {}

void ServerCore::request_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  // Trip every live job's cancellation token: running engines stop at
  // their next checkpoint and blocked wait()ers (a session serving "wait",
  // the daemon's join loop) release promptly.
  for (const JobInfo& info : jobs_.list()) jobs_.cancel(info.id);
}

bool IostreamTransport::read_line(std::string* line) {
  return static_cast<bool>(std::getline(in_, *line));
}

bool IostreamTransport::write_line(const std::string& line) {
  out_ << line << '\n';
  out_.flush();
  return static_cast<bool>(out_);
}

/// The write side shared between the session's reader thread (replies) and
/// the job workers (progress/done events). One mutex serializes lines;
/// close() detaches the stream so late events from still-draining jobs are
/// dropped instead of written to a dead client.
struct Session::Writer {
  std::mutex mutex;
  std::shared_ptr<LineTransport> transport;
  bool open = true;

  void write(const Json& payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!open) return;
    if (!transport->write_line(payload.dump())) open = false;
  }
  void close() {
    const std::lock_guard<std::mutex> lock(mutex);
    open = false;
  }
};

Session::Session(ServerCore& core, std::shared_ptr<LineTransport> transport)
    : core_(core), transport_(std::move(transport)), writer_(std::make_shared<Writer>()) {
  writer_->transport = transport_;
}

Session::~Session() {
  writer_->close();
  // Unfinished jobs of a vanished client are abandoned work: cancel them.
  // (cancel() is a no-op false for jobs that already completed.)
  for (const JobId id : submitted_) core_.jobs().cancel(id);
}

void Session::serve() {
  std::string line;
  while (!stop_ && !core_.shutdown_requested() && transport_->read_line(&line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Result<Json> parsed = Json::parse(line);
    Json reply;
    if (!parsed.ok()) {
      reply = Json::object();
      reply.set("id", Json());
      reply.set("error", to_json(parsed.status()));
    } else {
      reply = dispatch(parsed.value());
    }
    writer_->write(reply);
  }
}

Json Session::dispatch(const Json& request) {
  Json reply = Json::object();
  const Json* id = request.find("id");
  reply.set("id", id != nullptr ? *id : Json());

  auto execute = [&]() -> Result<Json> {
    if (!request.is_object()) {
      return Status::error(StatusCode::kInvalidArgument, "request: expected a JSON object");
    }
    const Json* method_json = request.find("method");
    if (method_json == nullptr || !method_json->is_string()) {
      return Status::error(StatusCode::kInvalidArgument, "request: missing string \"method\"");
    }
    const std::string& method = method_json->as_string();
    static const Json kNoParams = Json::object();
    const Json* params_ptr = request.find("params");
    const Json& params = params_ptr != nullptr ? *params_ptr : kNoParams;
    Status status;

    if (method == "compile") {
      std::string netlist;
      std::string name;
      wire::Decoder in(params, "params");
      in.field("netlist", netlist, Need::kRequired);
      in.field("name", name);
      if (!(status = in.finish()).ok()) return status;
      Result<CircuitHandle> compiled = core_.service().compile_netlist(netlist, name);
      if (!compiled.ok()) return compiled.status();
      CircuitHandle handle = compiled.take();
      // The content key survives restarts (it hashes the netlist text, not
      // the ephemeral circuit id), which is what lets a fresh daemon serve
      // stored responses for circuits compiled by a previous process.
      return circuit_info(
          core_.registry().add(handle, support::hex64(support::fnv1a64(netlist))), handle);
    }

    if (method == "submit") {
      std::string circuit_id;
      AnyRequest any_request;
      bool progress_events = false;
      SubmitOptions options;
      options.max_attempts = kDefaultMaxAttempts;
      wire::Decoder in(params, "params");
      in.field("circuit_id", circuit_id, Need::kRequired);
      in.object("request", any_request, Need::kRequired);
      in.field("progress", progress_events);
      in.field("deadline_ms", options.deadline_ms);
      in.field("max_attempts", options.max_attempts);
      if (!(status = in.finish()).ok()) return status;
      if (!std::isfinite(options.deadline_ms) ||
          (options.deadline_ms > 0.0 && !support::deadline_after_ms(options.deadline_ms))) {
        return Status::error(StatusCode::kInvalidArgument,
                             "params: \"deadline_ms\" must be a finite number of milliseconds "
                             "the clock can hold (below about 9.2e12)");
      }
      Result<CircuitHandle> handle_result = core_.registry().get(circuit_id);
      if (!handle_result.ok()) return handle_result.status();
      CircuitHandle handle = handle_result.take();

      const std::shared_ptr<Writer> writer = writer_;
      if (progress_events) {
        options.on_progress = [writer](JobId job, const refgen::IterationRecord& record) {
          Json event = Json::object();
          event.set("event", "progress");
          event.set("job_id", job_id_token(job));
          event.set("iteration", record.index);
          event.set("purpose", refgen::purpose_name(record.purpose));
          event.set("points", record.points);
          event.set("evaluations", record.evaluations);
          event.set("num_new_coefficients", record.num_new_coefficients);
          event.set("den_new_coefficients", record.den_new_coefficients);
          event.set("f_scale", record.f_scale);
          event.set("g_scale", record.g_scale);
          writer->write(event);
        };
      }

      // Reference store: key on (netlist content, request minus the
      // execution knobs that never change results).
      support::BlobStore* store = core_.store();
      std::string key;
      if (store != nullptr && store->ok()) {
        const std::string content = core_.registry().content_key(circuit_id);
        if (!content.empty()) key = store_key(content, any_request);
      }

      JobDoneFn on_done = [writer, store, key](JobId job, const JobOutcome& outcome) {
        Json event = Json::object();
        event.set("event", "done");
        event.set("job_id", job_id_token(job));
        event.set("result", to_json(outcome));
        writer->write(event);
        // Persist after the client saw its event. Only clean computed
        // results are stored: not errors, not store replays (raw), not
        // batches (they can embed per-item failures).
        if (store != nullptr && !key.empty() && outcome.status.ok() &&
            outcome.raw.is_null() && outcome.type != AnyRequest::Type::kBatch) {
          store->put(key, to_json(outcome).dump());
        }
      };

      if (!key.empty()) {
        if (std::optional<std::string> stored = store->get(key)) {
          // A checksum-verified entry that fails to re-parse is treated as a
          // miss (recomputed) — this also covers injected json_parse faults.
          Result<Json> payload = Json::parse(*stored);
          if (payload.ok()) {
            const JobId job = core_.jobs().submit_stored(
                std::move(handle), std::move(any_request), payload.take(), std::move(on_done));
            submitted_.push_back(job);
            Json out = Json::object();
            out.set("job_id", job_id_token(job));
            out.set("stored", true);
            return out;
          }
        }
      }

      options.on_done = std::move(on_done);
      const JobId job =
          core_.jobs().submit(std::move(handle), std::move(any_request), std::move(options));
      submitted_.push_back(job);
      Json out = Json::object();
      out.set("job_id", job_id_token(job));
      return out;
    }

    if (method == "poll" || method == "wait") {
      std::string token;
      if (!(status = one_string(params, "job_id", &token)).ok()) return status;
      Result<JobId> job = parse_job_id(token);
      if (!job.ok()) return job.status();
      if (method == "wait") {
        // Blocks the session's reader thread; events keep streaming.
        Result<JobOutcome> outcome = core_.jobs().wait(job.value());
        if (!outcome.ok()) return outcome.status();
      }
      Result<JobInfo> info = core_.jobs().poll(job.value());
      if (!info.ok()) return info.status();
      Json out = job_info_json(info.value());
      if (info.value().state == JobState::kDone) {
        Result<JobOutcome> outcome = core_.jobs().wait(job.value());  // immediate
        if (outcome.ok()) out.set("result", to_json(outcome.value()));
      }
      return out;
    }

    if (method == "cancel") {
      std::string token;
      if (!(status = one_string(params, "job_id", &token)).ok()) return status;
      Result<JobId> job = parse_job_id(token);
      if (!job.ok()) return job.status();
      Json out = Json::object();
      out.set("job_id", token);
      out.set("cancelled", core_.jobs().cancel(job.value()));
      return out;
    }

    if (method == "list") {
      if (!(status = wire::Decoder(params, "params").finish()).ok()) return status;
      Json circuits = Json::array();
      for (const Registry::Entry& entry : core_.registry().list()) {
        circuits.push_back(circuit_info(entry.id, entry.handle));
      }
      Json jobs = Json::array();
      for (const JobInfo& info : core_.jobs().list()) jobs.push_back(job_info_json(info));
      Json out = Json::object();
      out.set("circuits", std::move(circuits));
      out.set("jobs", std::move(jobs));
      return out;
    }

    if (method == "evict") {
      std::string circuit_id;
      if (!(status = one_string(params, "circuit_id", &circuit_id)).ok()) return status;
      Json out = Json::object();
      out.set("circuit_id", circuit_id);
      out.set("evicted", core_.registry().evict(circuit_id));
      return out;
    }

    if (method == "stats") {
      std::string circuit_id;
      if (!(status = one_string(params, "circuit_id", &circuit_id)).ok()) return status;
      Result<CircuitHandle> handle = core_.registry().get(circuit_id);
      if (!handle.ok()) return handle.status();
      Result<CacheStats> stats = core_.service().cache_stats(handle.value());
      if (!stats.ok()) return stats.status();
      Json out = Json::object();
      out.set("circuit_id", circuit_id);
      out.set("hits", static_cast<double>(stats.value().hits));
      out.set("misses", static_cast<double>(stats.value().misses));
      out.set("evictions", static_cast<double>(stats.value().evictions));
      out.set("entries", static_cast<double>(stats.value().entries));
      Result<EngineStats> engine = core_.service().engine_stats(handle.value());
      if (!engine.ok()) return engine.status();
      Json engine_json = Json::object();
      engine_json.set("fresh_factorizations",
                      static_cast<double>(engine.value().fresh_factorizations));
      engine_json.set("batched_lanes", static_cast<double>(engine.value().batched_lanes));
      engine_json.set("simplify_term_evals",
                      static_cast<double>(engine.value().simplify_term_evals));
      engine_json.set("simplify_terms_dropped",
                      static_cast<double>(engine.value().simplify_terms_dropped));
      engine_json.set("newton_iterations",
                      static_cast<double>(engine.value().newton_iterations));
      engine_json.set("op_solves", static_cast<double>(engine.value().op_solves));
      engine_json.set("transient_steps",
                      static_cast<double>(engine.value().transient_steps));
      engine_json.set("lte_rejections",
                      static_cast<double>(engine.value().lte_rejections));
      out.set("engine", std::move(engine_json));
      if (support::BlobStore* store = core_.store(); store != nullptr) {
        const support::BlobStore::Stats store_stats = store->stats();
        Json store_json = Json::object();
        store_json.set("ok", store->ok());
        store_json.set("hits", static_cast<double>(store_stats.hits));
        store_json.set("misses", static_cast<double>(store_stats.misses));
        store_json.set("writes", static_cast<double>(store_stats.writes));
        store_json.set("write_failures", static_cast<double>(store_stats.write_failures));
        store_json.set("corrupt_quarantined",
                       static_cast<double>(store_stats.corrupt_quarantined));
        out.set("store", std::move(store_json));
      }
      return out;
    }

    if (method == "shutdown") {
      if (!(status = wire::Decoder(params, "params").finish()).ok()) return status;
      stop_ = true;
      core_.request_shutdown();
      Json out = Json::object();
      out.set("ok", true);
      return out;
    }

    return Status::error(StatusCode::kInvalidArgument,
                         "unknown method \"" + method +
                             "\" (expected compile, submit, poll, wait, cancel, list, "
                             "evict, stats, or shutdown)");
  };

  Result<Json> result = execute();
  if (result.ok()) {
    reply.set("result", result.take());
  } else {
    reply.set("error", to_json(result.status()));
  }
  return reply;
}

}  // namespace symref::api::protocol
