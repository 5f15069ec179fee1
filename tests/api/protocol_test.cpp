// api::protocol: the line-delimited JSON session contract — method
// dispatch, error replies, the progress/done event stream, and the
// acceptance-criteria scenario: several concurrent sessions on one core
// whose per-job results are bit-identical to direct api::Service calls.
#include "api/protocol.h"

#include <gtest/gtest.h>

#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "circuits/ua741.h"
#include "netlist/writer.h"

namespace symref::api::protocol {
namespace {

/// Run one scripted session over string streams; returns the output lines.
std::vector<std::string> run_session(ServerCore& core, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  {
    Session session(core, std::make_shared<IostreamTransport>(in, out));
    session.serve();
  }
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

/// Parse a line; fails the test on malformed output.
Json parse_line(const std::string& line) {
  auto parsed = Json::parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? parsed.take() : Json();
}

/// First reply line (has an "id") with the given id; null Json when absent.
Json find_reply(const std::vector<std::string>& lines, int id) {
  for (const std::string& line : lines) {
    Json message = parse_line(line);
    const Json* found = message.find("id");
    if (found != nullptr && found->is_number() && found->as_int() == id) return message;
  }
  return Json();
}

std::string quote(const std::string& text) {
  Json wrapper(text);
  return wrapper.dump();
}

constexpr const char* kRcNetlist = "R1 in out 1k\nC1 out 0 1u\n";

TEST(ProtocolSession, CompileSubmitWaitLifecycle) {
  ServerCore core;
  const std::string script =
      std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
      quote(kRcNetlist) + R"(,"name":"rc"}})" +
      "\n"
      R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen","spec":{"in":"in","out":"out"}},"progress":true}})"
      "\n"
      R"({"id":3,"method":"wait","params":{"job_id":"j1"}})"
      "\n"
      R"({"id":4,"method":"poll","params":{"job_id":"j1"}})"
      "\n"
      R"({"id":5,"method":"stats","params":{"circuit_id":"c1"}})"
      "\n"
      R"({"id":6,"method":"list"})"
      "\n";
  const auto lines = run_session(core, script);

  const Json compiled = find_reply(lines, 1);
  ASSERT_TRUE(compiled.find("result") != nullptr) << "no compile reply";
  EXPECT_EQ(compiled.find("result")->find("circuit_id")->as_string(), "c1");
  EXPECT_EQ(compiled.find("result")->find("name")->as_string(), "rc");

  const Json submitted = find_reply(lines, 2);
  ASSERT_TRUE(submitted.find("result") != nullptr);
  EXPECT_EQ(submitted.find("result")->find("job_id")->as_string(), "j1");

  // Progress events streamed before the job completed.
  int progress_events = 0;
  bool done_event = false;
  for (const std::string& line : lines) {
    const Json message = parse_line(line);
    const Json* event = message.find("event");
    if (event == nullptr) continue;
    if (event->as_string() == "progress") {
      EXPECT_EQ(message.find("job_id")->as_string(), "j1");
      EXPECT_TRUE(message.find("iteration") != nullptr);
      EXPECT_TRUE(message.find("purpose") != nullptr);
      ++progress_events;
    } else if (event->as_string() == "done") {
      EXPECT_EQ(message.find("job_id")->as_string(), "j1");
      ASSERT_TRUE(message.find("result") != nullptr);
      EXPECT_EQ(message.find("result")->find("status")->find("code")->as_string(), "ok");
      done_event = true;
    }
  }
  EXPECT_GT(progress_events, 0);
  EXPECT_TRUE(done_event);

  const Json waited = find_reply(lines, 3);
  ASSERT_TRUE(waited.find("result") != nullptr);
  const Json* wait_result = waited.find("result");
  EXPECT_EQ(wait_result->find("state")->as_string(), "done");
  ASSERT_TRUE(wait_result->find("result") != nullptr);
  EXPECT_TRUE(wait_result->find("result")->find("complete")->as_bool());

  const Json polled = find_reply(lines, 4);
  ASSERT_TRUE(polled.find("result") != nullptr);
  EXPECT_EQ(polled.find("result")->find("state")->as_string(), "done");

  const Json stats = find_reply(lines, 5);
  ASSERT_TRUE(stats.find("result") != nullptr);
  EXPECT_TRUE(stats.find("result")->find("hits") != nullptr);
  const Json* engine = stats.find("result")->find("engine");
  ASSERT_TRUE(engine != nullptr);
  std::vector<std::string> counters;
  for (const auto& member : engine->members()) counters.push_back(member.first);
  EXPECT_EQ(counters, (std::vector<std::string>{
                          "fresh_factorizations", "batched_lanes", "simplify_term_evals",
                          "simplify_terms_dropped", "newton_iterations", "op_solves",
                          "transient_steps", "lte_rejections"}));

  const Json listed = find_reply(lines, 6);
  ASSERT_TRUE(listed.find("result") != nullptr);
  EXPECT_EQ(listed.find("result")->find("circuits")->size(), 1u);
  EXPECT_EQ(listed.find("result")->find("jobs")->size(), 1u);
}

TEST(ProtocolSession, ErrorsComeBackStructured) {
  ServerCore core;
  const std::string script =
      "this is not json\n"
      R"({"id":1,"method":"frobnicate"})"
      "\n"
      R"({"id":2,"method":"submit","params":{"circuit_id":"c9","request":{"type":"refgen","spec":{"in":"a","out":"b"}}}})"
      "\n"
      R"({"id":3,"method":"poll","params":{"job_id":"zzz"}})"
      "\n"
      R"({"id":4,"method":"cancel","params":{"job_id":"j42"}})"
      "\n"
      R"({"id":5,"method":"compile","params":{"netlist":"C1 a 0 bogus\n"}})"
      "\n";
  const auto lines = run_session(core, script);
  ASSERT_EQ(lines.size(), 6u);

  const Json malformed = parse_line(lines[0]);
  ASSERT_TRUE(malformed.find("error") != nullptr);
  EXPECT_EQ(malformed.find("error")->find("code")->as_string(), "parse_error");
  EXPECT_TRUE(malformed.find("id")->is_null());

  EXPECT_EQ(find_reply(lines, 1).find("error")->find("code")->as_string(),
            "invalid_argument");
  EXPECT_EQ(find_reply(lines, 2).find("error")->find("code")->as_string(), "not_found");
  EXPECT_EQ(find_reply(lines, 3).find("error")->find("code")->as_string(),
            "invalid_argument");
  // cancel of an unknown-but-well-formed id is a result, not an error.
  const Json cancel = find_reply(lines, 4);
  ASSERT_TRUE(cancel.find("result") != nullptr);
  EXPECT_FALSE(cancel.find("result")->find("cancelled")->as_bool(true));
  // Netlist parse errors keep their source position on the wire.
  const Json compile = find_reply(lines, 5);
  ASSERT_TRUE(compile.find("error") != nullptr);
  EXPECT_EQ(compile.find("error")->find("code")->as_string(), "parse_error");
  EXPECT_TRUE(compile.find("error")->find("line") != nullptr);
}

TEST(ProtocolSession, MistypedOrUnknownParamsFailAndCreateNoJob) {
  ServerCore core;
  const std::string request = R"("request":{"type":"refgen","spec":{"in":"in","out":"out"}})";
  const std::string submit = R"("method":"submit","params":{"circuit_id":"c1",)" + request;
  const std::vector<std::string> bad = {
      // Each would once have been dropped silently (the job ran without
      // its deadline, retry budget or progress stream).
      submit + R"(,"deadline_ms":"1"})",
      submit + R"(,"max_attempts":"3"})",
      submit + R"(,"max_attempts":2.5})",
      submit + R"(,"progress":"yes"})",
      submit + R"(,"deadlin_ms":1})",
      R"("method":"submit","params":{"circuit_id":7,)" + request + "}",
      R"("method":"submit","params":{"circuit_id":"c1"})",
      R"("method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen"}})",
      R"("method":"submit","params":[])",
      R"("method":"compile","params":{"netlist":"R1 a 0 1k\n","name":5})",
      R"("method":"poll","params":{"job_id":"j1","verbose":true})",
      R"("method":"wait","params":{"job":"j1"})",
      R"("method":"cancel","params":{"job_id":1})",
      R"("method":"evict","params":{"circuit_id":"c1","force":true})",
      R"("method":"stats","params":{})",
      R"("method":"list","params":{"all":true})",
      R"("method":"shutdown","params":{"now":true})",
  };
  std::string script = std::string(R"({"id":0,"method":"compile","params":{"netlist":)") +
                       quote(kRcNetlist) + "}}\n";
  for (std::size_t i = 0; i < bad.size(); ++i) {
    script += "{\"id\":" + std::to_string(i + 1) + "," + bad[i] + "}\n";
  }
  script += "{\"id\":99," R"("method":"list"})" "\n";
  const auto lines = run_session(core, script);

  ASSERT_NE(find_reply(lines, 0).find("result"), nullptr);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(bad[i]);
    const Json reply = find_reply(lines, static_cast<int>(i + 1));
    ASSERT_NE(reply.find("error"), nullptr) << reply.dump();
    EXPECT_EQ(reply.find("error")->find("code")->as_string(), "invalid_argument");
  }
  // Params failures name the params object; a bad request names the request.
  EXPECT_EQ(find_reply(lines, 1).find("error")->find("message")->as_string(),
            "params: \"deadline_ms\" must be a number");
  EXPECT_EQ(find_reply(lines, 5).find("error")->find("message")->as_string(),
            "params: unknown key \"deadlin_ms\"");
  EXPECT_EQ(find_reply(lines, 8).find("error")->find("message")->as_string(),
            "request: missing required key \"spec\"");
  // None of the rejected submits created a job; the daemon is still serving.
  const Json listed = find_reply(lines, 99);
  ASSERT_NE(listed.find("result"), nullptr);
  EXPECT_EQ(listed.find("result")->find("jobs")->size(), 0u);
  EXPECT_EQ(listed.find("result")->find("circuits")->size(), 1u);
  EXPECT_FALSE(core.shutdown_requested());
}

TEST(ProtocolSession, DeadlinesTheClockCannotHoldAreRejected) {
  // 1e16 ms is past the steady clock's range and 1e400 parses to infinity:
  // both used to overflow into a deadline in the past. 1e12 ms still works.
  ServerCore core;
  std::string script = std::string(R"({"id":0,"method":"compile","params":{"netlist":)") +
                       quote(kRcNetlist) + "}}\n";
  const char* const budgets[] = {"1e16", "1e400", "1e12"};
  for (int id = 1; id <= 3; ++id) {
    script += "{\"id\":";
    script += std::to_string(id);
    script += R"(,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen",)"
              R"("spec":{"in":"in","out":"out"}},"deadline_ms":)";
    script += budgets[id - 1];
    script += "}}\n";
  }
  script += R"({"id":4,"method":"wait","params":{"job_id":"j1"}})"
            "\n"
            R"({"id":5,"method":"list"})"
            "\n";
  const auto lines = run_session(core, script);
  for (const int id : {1, 2}) {
    const Json reply = find_reply(lines, id);
    ASSERT_NE(reply.find("error"), nullptr) << reply.dump();
    EXPECT_EQ(reply.find("error")->find("code")->as_string(), "invalid_argument");
  }
  ASSERT_NE(find_reply(lines, 3).find("result"), nullptr) << find_reply(lines, 3).dump();
  const Json waited = find_reply(lines, 4);
  ASSERT_NE(waited.find("result"), nullptr) << waited.dump();
  EXPECT_EQ(waited.find("result")->find("result")->find("status")->find("code")->as_string(),
            "ok");
  EXPECT_EQ(find_reply(lines, 5).find("result")->find("jobs")->size(), 1u);
}

TEST(ProtocolSession, ShutdownStopsEverySession) {
  ServerCore core;
  const auto lines = run_session(core, R"({"id":1,"method":"shutdown"})"
                                       "\n"
                                       R"({"id":2,"method":"list"})"
                                       "\n");
  // The session stops after the shutdown reply; the list never runs.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(core.shutdown_requested());
  // A new session on the same core exits immediately.
  EXPECT_TRUE(run_session(core, R"({"id":1,"method":"list"})"
                                "\n")
                  .empty());
}

// request_shutdown must release wait()-blocked session threads by
// cancelling live jobs — otherwise a daemon with a long job in flight
// cannot exit until the job completes naturally.
TEST(ProtocolSession, ShutdownCancelsLiveJobs) {
  ServerOptions options;
  options.workers = 1;  // the second submit must stay queued deterministically
  ServerCore core(options);
  const auto compiled = core.service().compile_netlist(kRcNetlist);
  ASSERT_TRUE(compiled.ok());

  // Park the job's engine inside its observer until the test releases it,
  // so the job is deterministically running when shutdown arrives.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  AnyRequest request;
  request.type = AnyRequest::Type::kRefgen;
  request.refgen.spec = mna::TransferSpec::voltage_gain("in", "out");
  request.refgen.options.on_iteration = [&](const refgen::IterationRecord&) {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  const JobId running = core.jobs().submit(compiled.value(), request);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; }));
  }
  const JobId queued = core.jobs().submit(compiled.value(), request);

  core.request_shutdown();
  // The queued job is already complete (cancelled without running).
  const auto queued_outcome = core.jobs().wait(queued);
  ASSERT_TRUE(queued_outcome.ok());
  EXPECT_EQ(queued_outcome.value().status.code(), StatusCode::kCancelled);
  // The running job's token is tripped; once its observer returns it stops
  // at the next iteration boundary instead of running to completion.
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  const auto running_outcome = core.jobs().wait(running);
  ASSERT_TRUE(running_outcome.ok());
  EXPECT_EQ(running_outcome.value().status.code(), StatusCode::kCancelled);
}

TEST(ProtocolSession, EvictMakesCircuitUnaddressable) {
  ServerCore core;
  const std::string script =
      std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
      quote(kRcNetlist) + "}}\n" +
      R"({"id":2,"method":"evict","params":{"circuit_id":"c1"}})"
      "\n"
      R"({"id":3,"method":"submit","params":{"circuit_id":"c1","request":{"type":"refgen","spec":{"in":"in","out":"out"}}}})"
      "\n";
  const auto lines = run_session(core, script);
  EXPECT_TRUE(find_reply(lines, 2).find("result")->find("evicted")->as_bool());
  EXPECT_EQ(find_reply(lines, 3).find("error")->find("code")->as_string(), "not_found");
}

TEST(ProtocolSession, DeviceDeckBatchMatchesTheLocalBatch) {
  // A batch on the transistor-level deck, as a stored request file sends it:
  // its first item still carries the legacy auto_linearize member. Both
  // items run on the linearized circuit, and the daemon serves what the
  // local facade serves.
  std::ifstream file(std::string(SYMREF_SOURCE_DIR) + "/tools/data/ua741_npn.cir");
  std::stringstream netlist;
  netlist << file.rdbuf();
  ASSERT_FALSE(netlist.str().empty());
  const std::string spec = R"({"in":"inp","in_neg":"inn","out":"vo"})";
  const std::string document = R"({"type":"batch","items":[{"spec":)" + spec +
                               R"(,"auto_linearize":true},{"spec":)" + spec +
                               R"(,"options":{"sigma":7}}]})";
  const auto request = request_from_json(Json::parse(document).take());
  ASSERT_TRUE(request.ok()) << request.status().to_string();

  const Service direct;
  const auto handle = direct.compile_netlist(netlist.str());
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  const auto local = direct.batch(handle.value(), request.value().batch);
  ASSERT_TRUE(local.ok()) << local.status().to_string();

  ServerCore core;
  const auto lines = run_session(
      core, std::string(R"({"id":1,"method":"compile","params":{"netlist":)") +
                quote(netlist.str()) + "}}\n" +
                R"({"id":2,"method":"submit","params":{"circuit_id":"c1","request":)" +
                document + "}}\n" + R"({"id":3,"method":"wait","params":{"job_id":"j1"}})" +
                "\n");
  const Json waited = find_reply(lines, 3);
  ASSERT_TRUE(waited.find("result") != nullptr) << waited.dump();
  const Json* result = waited.find("result")->find("result");
  ASSERT_TRUE(result != nullptr);
  const Json::Array& items = result->find("items")->items();
  ASSERT_EQ(items.size(), 2u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE(i);
    const BatchItemResponse& want = local.value().items[i];
    ASSERT_TRUE(want.status.ok()) << want.status.to_string();
    EXPECT_EQ(items[i].find("status")->find("code")->as_string(), "ok");
    ASSERT_TRUE(items[i].find("reference") != nullptr);
    EXPECT_EQ(items[i].find("reference")->dump(),
              to_json(want.response.result.reference).dump());
  }
}

TEST(ProtocolJobIds, TokenRoundTrip) {
  EXPECT_EQ(job_id_token(7), "j7");
  const auto parsed = parse_job_id("j7");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), 7u);
  EXPECT_FALSE(parse_job_id("7").ok());
  EXPECT_FALSE(parse_job_id("j").ok());
  EXPECT_FALSE(parse_job_id("jx7").ok());
  EXPECT_FALSE(parse_job_id("j123456789012345678901").ok());
}

// The acceptance scenario, in-process: four sessions drive one core
// concurrently (a compile + refgen job each on the µA741) and every
// session's result is bit-identical to a direct api::Service call.
//
// The scripted client reacts to its own replies (circuit and job ids are
// core-global, so a blind script cannot predict them): step n+1 is
// generated after the reply to step n arrived — exactly how a remote
// client behaves.
class ScriptedClient : public LineTransport {
 public:
  explicit ScriptedClient(std::string netlist) : netlist_(std::move(netlist)) {}

  bool read_line(std::string* line) override {
    switch (step_++) {
      case 0: {
        Json params = Json::object();
        params.set("netlist", netlist_);
        *line = request(1, "compile", std::move(params));
        return true;
      }
      case 1: {
        // circuits::ua741_gain_spec(): differential input inp/inn, output vo.
        Json spec = Json::object();
        spec.set("in", "inp");
        spec.set("in_neg", "inn");
        spec.set("out", "vo");
        Json refgen = Json::object();
        refgen.set("type", "refgen");
        refgen.set("spec", std::move(spec));
        Json params = Json::object();
        params.set("circuit_id", circuit_id_);
        params.set("request", std::move(refgen));
        *line = request(2, "submit", std::move(params));
        return true;
      }
      case 2: {
        Json params = Json::object();
        params.set("job_id", job_id_);
        *line = request(3, "wait", std::move(params));
        return true;
      }
      default: return false;  // EOF ends the session
    }
  }

  bool write_line(const std::string& line) override {
    // Serialized by the session's writer mutex; replies arrive on the
    // session's own reader thread, so the ids consumed by read_line are
    // written by the same thread that reads them.
    auto parsed = Json::parse(line);
    if (!parsed.ok()) return true;
    const Json& message = parsed.value();
    const Json* id = message.find("id");
    const Json* result = message.find("result");
    if (id == nullptr || result == nullptr) return true;  // event or error
    if (id->as_int() == 1) {
      const Json* circuit = result->find("circuit_id");
      if (circuit != nullptr) circuit_id_ = circuit->as_string();
    } else if (id->as_int() == 2) {
      const Json* job = result->find("job_id");
      if (job != nullptr) job_id_ = job->as_string();
    } else if (id->as_int() == 3) {
      const Json* payload = result->find("result");
      if (payload != nullptr) wait_result_ = *payload;
    }
    return true;
  }

  [[nodiscard]] const Json& wait_result() const { return wait_result_; }

 private:
  static std::string request(int id, const char* method, Json params) {
    Json out = Json::object();
    out.set("id", id);
    out.set("method", method);
    out.set("params", std::move(params));
    return out.dump();
  }

  std::string netlist_;
  int step_ = 0;
  std::string circuit_id_;
  std::string job_id_;
  Json wait_result_;
};

TEST(ProtocolConcurrency, FourSessionsBitIdenticalToDirectService) {
  const std::string netlist = netlist::write_netlist(circuits::ua741());

  // Direct facade reference: the payload a lone api::Service caller gets.
  const Service direct;
  const auto handle = direct.compile_netlist(netlist);
  ASSERT_TRUE(handle.ok());
  const auto reference = direct.refgen(handle.value(), {circuits::ua741_gain_spec(), {}});
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  const std::string expected =
      to_json(reference.value().result.reference).dump();

  ServerCore core;
  constexpr int kSessions = 4;
  std::vector<std::shared_ptr<ScriptedClient>> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(std::make_shared<ScriptedClient>(netlist));
  }
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&core, client = clients[static_cast<std::size_t>(i)]] {
      Session session(core, client);
      session.serve();
    });
  }
  for (std::thread& thread : threads) thread.join();

  // All four circuits registered, all four jobs done.
  EXPECT_EQ(core.registry().size(), 4u);
  for (const std::shared_ptr<ScriptedClient>& client : clients) {
    const Json& result = client->wait_result();
    ASSERT_TRUE(result.find("status") != nullptr) << "session got no wait result";
    EXPECT_EQ(result.find("status")->find("code")->as_string(), "ok");
    ASSERT_TRUE(result.find("reference") != nullptr);
    // Bit-identical: the serialized reference (hex-float mantissas) matches
    // the direct facade payload byte for byte.
    EXPECT_EQ(result.find("reference")->dump(), expected);
  }
}

}  // namespace
}  // namespace symref::api::protocol
