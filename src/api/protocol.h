// Line-delimited JSON protocol: the served form of api::Service.
//
// One request per line, one reply per line, plus server-pushed event lines
// for job progress and completion — a JSON-RPC-shaped contract small enough
// to drive from a shell script yet complete enough for a multi-client
// daemon (tools/refgend speaks it over stdio and TCP; tools/refgen
// --connect is a client). The full schema is documented in docs/api.md
// ("Server protocol").
//
//   -> {"id": 1, "method": "compile", "params": {"netlist": "..."}}
//   <- {"id": 1, "result": {"circuit_id": "c1", ...}}
//   -> {"id": 2, "method": "submit",
//       "params": {"circuit_id": "c1", "request": {"type": "refgen", ...},
//                  "progress": true}}
//   <- {"id": 2, "result": {"job_id": "j1"}}
//   <- {"event": "progress", "job_id": "j1", "iteration": 0, ...}
//   <- {"event": "done", "job_id": "j1", "result": {"type": "refgen", ...}}
//
// Methods: compile, submit, poll, wait, cancel, list, evict, stats,
// shutdown. Failures come back as {"id": ..., "error": {"code": ...}} using
// the api::Status taxonomy. Replies to a session's requests are written in
// request order; event lines interleave arbitrarily (each line is
// self-contained — dispatch on the presence of "event" vs "id").
//
// Topology: one ServerCore per daemon (the Service, the circuit Registry,
// the JobManager — ids are daemon-global, so any session may poll or cancel
// any job); one Session per client connection. A session that ends (EOF or
// shutdown) cancels the jobs it submitted and stops its event stream;
// compiled circuits stay registered for other clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "api/jobs.h"
#include "api/registry.h"
#include "api/service.h"
#include "support/blob_store.h"

namespace symref::api::protocol {

struct ServerOptions {
  ServiceOptions service;
  /// JobManager worker lanes; <= 0 picks the hardware thread count, and at
  /// most support::ThreadPool::kMaxLanes run.
  int workers = 0;
  /// Bound on jobs waiting for a worker (0 = unbounded). A submit that
  /// finds the queue full completes immediately with kOverloaded — clients
  /// are expected to back off and retry.
  std::size_t max_queue_depth = 0;
  /// Directory of the crash-safe reference store (empty = no store). A
  /// submit whose (netlist content, request) pair was served before — even
  /// by a previous daemon process — replays the stored response
  /// byte-identically instead of recomputing.
  std::string store_dir;
};

/// Shared state of one daemon: every session compiles into, submits to, and
/// polls the same registry and job manager.
class ServerCore {
 public:
  explicit ServerCore(ServerOptions options = {});

  [[nodiscard]] const Service& service() const noexcept { return service_; }
  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] JobManager& jobs() noexcept { return jobs_; }
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }
  /// The reference store, or nullptr when ServerOptions::store_dir is
  /// empty. May be !ok() (unusable directory) — sessions then skip it and
  /// the daemon serves without persistence; check error() for the cause.
  [[nodiscard]] support::BlobStore* store() noexcept { return store_.get(); }

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }
  /// Stop serving AND cancel every live job: a session thread blocked in
  /// jobs().wait() would otherwise pin the daemon until its job finished
  /// naturally (sockets only unblock threads parked in read_line).
  void request_shutdown();

 private:
  ServerOptions options_;
  Service service_;
  Registry registry_;
  std::unique_ptr<support::BlobStore> store_;
  std::atomic<bool> shutdown_{false};
  JobManager jobs_;  // declared last: destroyed first, while the rest lives
};

/// One client connection as the protocol sees it: a readable and writable
/// stream of '\n'-terminated lines. read_line is called from the session's
/// reader thread only; write_line must tolerate calls from worker threads
/// (the session serializes them under its own mutex, so implementations
/// just need to write-and-flush atomically per call).
class LineTransport {
 public:
  virtual ~LineTransport() = default;
  /// False on EOF or a broken connection.
  virtual bool read_line(std::string* line) = 0;
  virtual bool write_line(const std::string& line) = 0;
};

/// std::istream/std::ostream transport — stdio daemons and in-process tests.
class IostreamTransport : public LineTransport {
 public:
  IostreamTransport(std::istream& in, std::ostream& out) : in_(in), out_(out) {}
  bool read_line(std::string* line) override;
  bool write_line(const std::string& line) override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

/// Serves one connection until EOF, a "shutdown" request, or another
/// session's shutdown. Create one per client; sessions of one core may run
/// on concurrent threads.
class Session {
 public:
  Session(ServerCore& core, std::shared_ptr<LineTransport> transport);
  /// Closes the event stream and cancels this session's unfinished jobs.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Blocking read-dispatch-reply loop.
  void serve();

 private:
  struct Writer;

  [[nodiscard]] Json dispatch(const Json& request);

  ServerCore& core_;
  std::shared_ptr<LineTransport> transport_;
  std::shared_ptr<Writer> writer_;
  std::vector<JobId> submitted_;
  bool stop_ = false;  // this session saw "shutdown"
};

/// Wire token of a job id ("j7"). parse_job_id accepts exactly that form.
std::string job_id_token(JobId id);
[[nodiscard]] Result<JobId> parse_job_id(const std::string& token);

}  // namespace symref::api::protocol
