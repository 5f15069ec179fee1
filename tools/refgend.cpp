// refgend: the reference-generation engine as a session daemon.
//
// Speaks the line-delimited JSON protocol of api/protocol.h (methods:
// compile, submit, poll, wait, cancel, list, evict, stats, shutdown;
// server-pushed progress/done events). Circuits compile once into a shared
// registry; every analysis runs as an asynchronous job on a fixed worker
// pool, so many clients (or one scripted session) share compiled circuits
// and response caches.
//
//   $ refgend                          # one session on stdin/stdout
//   $ refgend --listen=7171           # concurrent clients on 127.0.0.1:7171
//   $ refgend --listen=0              # ephemeral port (printed on stdout)
//
// Flags:
//   --workers=N     job worker lanes, at most 64 (default: hardware
//                   threads)
//   --listen=PORT   serve TCP on 127.0.0.1:PORT (0 to 65535; 0 picks an
//                   ephemeral port) instead of stdio; prints
//                   "refgend: listening on 127.0.0.1:<port>" first
//   --max-cached=N  response-cache bound per request type per circuit
//                   (default 64; 0 memoizes nothing)
//   --max-queue=N   bound on jobs waiting for a worker (default unbounded);
//                   a submit that finds the queue full fails kOverloaded
//   --store=DIR     crash-safe reference store: completed responses persist
//                   to DIR and are replayed byte-identically across
//                   restarts (docs/api.md "Reference store")
//
// An unknown flag, or a numeric flag that does not parse whole or is out
// of range, exits 2 naming it.
//
// stdio mode serves exactly one session and exits at EOF or shutdown. TCP
// mode serves until any client sends shutdown or the process receives
// SIGTERM/SIGINT; either way the daemon stops accepting, drains in-flight
// jobs, unblocks every session, and exits cleanly. A scripted session, end
// to end (printf '%s\n' LINE... | refgend):
//
//   {"id":1,"method":"compile","params":{"netlist":"R1 in out 1k ..."}}
//   {"id":2,"method":"submit","params":{"circuit_id":"c1","request":
//      {"type":"refgen","spec":{"in":"in","out":"out"}},"progress":true}}
//   {"id":3,"method":"wait","params":{"job_id":"j1"}}
//   {"id":4,"method":"shutdown"}
#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/protocol.h"
#include "support/cli.h"
#include "support/fault_injection.h"
#include "support/thread_pool.h"
#include "transport_posix.h"

namespace {

using symref::api::protocol::ServerCore;
using symref::api::protocol::ServerOptions;
using symref::api::protocol::Session;

/// Set by the SIGTERM/SIGINT handler; polled by the accept loop. sigaction
/// is installed without SA_RESTART so a signal also interrupts a blocking
/// poll/accept promptly.
volatile std::sig_atomic_t g_signal_received = 0;

void on_terminate_signal(int signal_number) { g_signal_received = signal_number; }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = on_terminate_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: let signals interrupt poll()
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// Wait (bounded) for every queued/running job to reach kDone, so a SIGTERM
/// shutdown never abandons accepted work mid-flight.
void drain_jobs(ServerCore& core, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point give_up = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool busy = false;
    for (const symref::api::JobInfo& info : core.jobs().list()) {
      if (info.state != symref::api::JobState::kDone) {
        busy = true;
        break;
      }
    }
    if (!busy) return;
    if (Clock::now() >= give_up) {
      std::fprintf(stderr, "refgend: drain timeout; cancelling remaining jobs\n");
      for (const symref::api::JobInfo& info : core.jobs().list()) core.jobs().cancel(info.id);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int serve_stdio(ServerCore& core) {
  auto transport =
      std::make_shared<symref::api::protocol::IostreamTransport>(std::cin, std::cout);
  Session session(core, std::move(transport));
  session.serve();
  return 0;
}

int serve_tcp(ServerCore& core, int port) {
  std::string error;
  int bound_port = 0;
  const int listen_fd = symref::tools::listen_on(port, &bound_port, &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "refgend: %s\n", error.c_str());
    return 2;
  }
  // Announce the bound port on stdout (scripts with --listen=0 parse it).
  std::printf("refgend: listening on 127.0.0.1:%d\n", bound_port);
  std::fflush(stdout);

  // Sessions as (fd, thread). A finishing session sets its fd to -1 under
  // the mutex, while its transport still owns the fd, and never takes the
  // mutex again; the accept loop then joins it, so a finished session keeps
  // neither a thread stack nor a stale fd number. Only this thread links or
  // unlinks list nodes.
  std::mutex clients_mutex;
  std::list<std::pair<int, std::thread>> clients;
  while (!core.shutdown_requested() && g_signal_received == 0) {
    {
      const std::lock_guard<std::mutex> lock(clients_mutex);
      clients.remove_if([](std::pair<int, std::thread>& client) {
        if (client.first < 0) client.second.join();
        return client.first < 0;
      });
    }
    int accept_errno = 0;
    const int fd =
        symref::tools::accept_client(listen_fd, /*timeout_ms=*/200, &accept_errno);
    if (fd < 0) {
      // EINTR (a signal — the loop condition decides), ECONNABORTED, EMFILE
      // and friends are all transient at this level: log non-timeouts and
      // keep serving. Only the loop conditions end the daemon.
      if (accept_errno != 0 && accept_errno != EINTR) {
        std::fprintf(stderr, "refgend: accept: %s (retrying)\n",
                     std::strerror(accept_errno));
      }
      continue;
    }
    if (symref::support::fault("socket_io")) {
      // Chaos mode: drop the freshly accepted connection, as a network
      // hiccup would. Clients with --retry reconnect and resume.
      ::close(fd);
      continue;
    }
    auto& client = clients.emplace_back(fd, std::thread());
    client.second = std::thread([&core, &clients_mutex, &client, fd] {
      // The transport owns (and eventually closes) fd; the daemon only ever
      // shutdown(2)s it to break the read loop of a live session.
      Session session(core, std::make_shared<symref::tools::FdTransport>(fd));
      session.serve();
      const std::lock_guard<std::mutex> lock(clients_mutex);
      client.first = -1;
    });
  }
  ::close(listen_fd);
  if (g_signal_received != 0 && !core.shutdown_requested()) {
    // Graceful signal shutdown: finish accepted work, then stop sessions.
    std::fprintf(stderr, "refgend: signal %d: draining in-flight jobs\n",
                 static_cast<int>(g_signal_received));
    drain_jobs(core, /*timeout_ms=*/30000);
    core.request_shutdown();
  }
  // Unblock live sessions parked in read_line so their threads can finish.
  {
    const std::lock_guard<std::mutex> lock(clients_mutex);
    for (const auto& [client_fd, thread] : clients) {
      if (client_fd >= 0) ::shutdown(client_fd, SHUT_RDWR);
    }
  }
  for (auto& client : clients) client.second.join();
  return 0;
}

/// Reads the daemon's numeric flags into `options` and `port`; a value that
/// does not parse or is out of range throws support::FlagError.
void read_flags(const symref::support::CliArgs& args, ServerOptions* options, int* port) {
  const auto bound = [&args](const std::string& name, int fallback) {
    const int value = args.get_int(name, fallback);
    if (value < 0) {
      throw symref::support::FlagError("bad --" + name + " '" + args.get(name) +
                                       "' (want a whole number >= 0)");
    }
    return static_cast<std::size_t>(value);
  };
  options->workers = args.get_int("workers", 0);
  if (options->workers > symref::support::ThreadPool::kMaxLanes) {
    throw symref::support::FlagError(
        "bad --workers '" + args.get("workers") + "' (want at most " +
        std::to_string(symref::support::ThreadPool::kMaxLanes) + ")");
  }
  options->service.max_cached_responses = bound("max-cached", 64);
  options->max_queue_depth = bound("max-queue", 0);
  *port = args.get_int("listen", 0);
  if (*port < 0 || *port > 65535) {
    throw symref::support::FlagError("bad --listen '" + args.get("listen") +
                                     "' (want a port from 0 to 65535)");
  }
}

/// The daemon's whole run; a flag that is unknown, or numeric and does not
/// parse or is out of range, throws support::FlagError, which main() turns
/// into exit 2.
int run(const symref::support::CliArgs& args) {
  if (!args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: refgend [--workers=N] [--listen=PORT] [--max-cached=N] "
                 "[--max-queue=N] [--store=DIR]\n");
    return 2;
  }
  ServerOptions options;
  int port = 0;
  read_flags(args, &options, &port);
  options.store_dir = args.get("store");
  ServerCore core(options);
  if (symref::support::BlobStore* store = core.store();
      store != nullptr && !store->ok()) {
    std::fprintf(stderr, "refgend: store disabled: %s\n", store->error().c_str());
  }
  install_signal_handlers();
  if (args.has("listen")) return serve_tcp(core, port);
  return serve_stdio(core);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(symref::support::CliArgs(
        argc, argv, {"workers", "listen", "max-cached", "max-queue", "store"}));
  } catch (const symref::support::FlagError& error) {
    std::fprintf(stderr, "refgend: %s\n", error.what());
    return 2;
  }
}
