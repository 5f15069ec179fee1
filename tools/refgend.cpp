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
//   --workers=N     job worker lanes (default: hardware threads)
//   --listen=PORT   serve TCP on 127.0.0.1:PORT instead of stdio;
//                   prints "refgend: listening on 127.0.0.1:<port>" first
//   --max-cached=N  response-cache bound per request type per circuit (default 64)
//   --max-queue=N   bound on jobs waiting for a worker (default unbounded);
//                   a submit that finds the queue full fails kOverloaded
//   --store=DIR     crash-safe reference store: completed responses persist
//                   to DIR and are replayed byte-identically across
//                   restarts (docs/api.md "Reference store")
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
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/protocol.h"
#include "support/cli.h"
#include "support/fault_injection.h"
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

  std::mutex clients_mutex;
  std::vector<int> client_fds;
  std::vector<std::thread> sessions;
  while (!core.shutdown_requested() && g_signal_received == 0) {
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
    {
      const std::lock_guard<std::mutex> lock(clients_mutex);
      client_fds.push_back(fd);
    }
    sessions.emplace_back([&core, fd] {
      // The transport owns (and eventually closes) fd; the daemon only ever
      // shutdown(2)s it to break the read loop.
      Session session(core, std::make_shared<symref::tools::FdTransport>(fd));
      session.serve();
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
  // Unblock sessions parked in read_line so their threads can finish.
  {
    const std::lock_guard<std::mutex> lock(clients_mutex);
    for (const int fd : client_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& session : sessions) session.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const symref::support::CliArgs args(
      argc, argv, {"workers", "listen", "max-cached", "max-queue", "store"});
  if (!args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: refgend [--workers=N] [--listen=PORT] [--max-cached=N] "
                 "[--max-queue=N] [--store=DIR]\n");
    return 2;
  }
  ServerOptions options;
  options.workers = args.get_int("workers", 0);
  const int max_cached = args.get_int("max-cached", 64);
  options.service.max_cached_responses =
      max_cached < 0 ? 0 : static_cast<std::size_t>(max_cached);
  const int max_queue = args.get_int("max-queue", 0);
  options.max_queue_depth = max_queue < 0 ? 0 : static_cast<std::size_t>(max_queue);
  options.store_dir = args.get("store");
  ServerCore core(options);
  if (symref::support::BlobStore* store = core.store();
      store != nullptr && !store->ok()) {
    std::fprintf(stderr, "refgend: store disabled: %s\n", store->error().c_str());
  }
  install_signal_handlers();
  if (args.has("listen")) return serve_tcp(core, args.get_int("listen", 0));
  return serve_stdio(core);
}
