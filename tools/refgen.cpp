// refgen: the reference generator as a production command-line service.
//
//   $ refgen my_amplifier.cir --in=vin --out=vout            # reference
//   $ refgen ua741.cir --in=inp --out=vo --sweep=1:1e8:10    # + AC sweep
//   $ refgen ua741.cir --in=inp --out=vo --poles --json=-    # + poles, JSON
//   $ refgen ua741.cir --requests=session.json --json=-      # JSON session
//   $ refgen ua741.cir --in=inp --out=vo --connect=7171      # via refgend
//
// Built entirely on api::Service: the netlist is compiled ONCE into a
// CircuitHandle, then every request of the session runs against that handle
// (sharing canonicalization, assembly patterns, and LU plans — ask for
// --sweep and --poles together and the symbolic work is not repeated).
// Errors come back as api::Status; no exception reaches main().
//
// With --connect the same session is executed remotely: the tool dials a
// refgend daemon, compiles the netlist there, submits every request as an
// asynchronous job, and waits for the results (identical payloads — the
// daemon runs the same facade).
//
// Flags:
//   --in= --out= [--in-neg=] [--out-neg=]  transfer ports (node names)
//   --transimpedance                       H = V(out)/I(in) instead of V/V
//   --refgen                               reference request (default when
//                                          ports are given)
//   --op                                   DC operating-point request (the
//                                          bias a device-bearing netlist is
//                                          linearized at; needs no ports)
//   --sweep=f_start:f_stop[:pts_per_dec]   AC sweep request
//   --poles                                poles/zeros request
//   --sweep-param=name:from:to:count[:log][,name:...]
//                                          grid parameter sweep over the
//                                          netlist's .param symbols
//   --mc-param=name:nominal:rel_sigma[:uniform][,name:...]
//                                          Monte-Carlo parameter sweep
//   --mc-samples=N --seed=S                Monte-Carlo sample count / seed
//   --probe=f_start:f_stop[:pts_per_dec]   per-sample probe frequency grid
//                                          of a parameter sweep
//   --tran=tstop[:tstep[:method[:fixed]]]  transient analysis over [0, tstop]
//                                          (method: trap|bdf1|bdf2; "fixed"
//                                          disables the LTE step control;
//                                          needs no ports; runs the
//                                          large-signal netlist directly)
//   --simplify                             reference-driven symbolic
//                                          simplification request
//   --error-budget=E                       simplify: certified max relative
//                                          error over the band (default 0.01)
//   --band=f_start:f_stop[:points]         simplify: log-spaced frequency
//                                          band (default 10:1e3:9)
//   --requests=file.json                   JSON request session (see
//                                          docs/api.md; replaces flag-built
//                                          requests; '-' reads stdin)
//   --sigma= --max-iterations= --threads=  engine options for flag-built
//                                          requests
//   --timeout=<seconds>                    local runs: cancel outstanding
//                                          work after the budget (exit code
//                                          9); a budget that is not positive
//                                          or that the clock cannot hold
//                                          (about 9.2e9 s and up) exits 2
//   --connect=[host:]port                  run the session on a refgend
//                                          daemon instead of in-process
//   --retry=N                              with --connect: retry the dial
//                                          and io_error sessions up to N
//                                          extra times with exponential
//                                          backoff (default 0 = no retry)
//   --deadline-ms=N                        with --connect: per-request
//                                          deadline enforced by the daemon
//                                          (exit 13 when exceeded)
//   --json[=path|-]                        machine-readable output ('-' or
//                                          empty = stdout)
//   --emit-reference                       text reference format (io.h)
//   --progress                             iteration progress on stderr
//   --name=label                           handle label in the output
//
// On a netlist with D/Q/M cards, every AC-family request (reference,
// sweep, poles, parameter sweep, simplify) runs on the small-signal circuit
// linearized at the solved DC operating point; --op shows that bias.
//
// A flag not listed above exits 2 naming it. A numeric flag is read only
// when all of its value parses and fits its type (a whole number for the
// counts); anything else exits 2 naming it. So does a flag the mode does
// not use: --timeout with --connect, --retry or --deadline-ms without it. A
// session writes one --json envelope, also when --retry re-runs it.
//
// Exit status: 0 all requests ok; 2 usage/input error; otherwise the class
// of the first failure: 3 parse_error, 4 invalid_spec, 5 invalid_argument,
// 6 singular_system, 7 refused_replay, 8 incomplete, 9 cancelled (e.g.
// --timeout), 10 not_found, 11 io_error, 12 internal, 13 deadline_exceeded,
// 14 overloaded, 15 unavailable, 16 no_convergence.
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/jobs.h"
#include "numeric/units.h"
#include "refgen/io.h"
#include "support/cancellation.h"
#include "support/cli.h"
#include "support/timer.h"
#include "transport_posix.h"

namespace {

using symref::api::AnyRequest;
using symref::api::JobOutcome;
using symref::api::Json;
using symref::api::Status;
using symref::api::StatusCode;

/// The documented exit-code contract (one code per StatusCode class).
int exit_code_for(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kParseError: return 3;
    case StatusCode::kInvalidSpec: return 4;
    case StatusCode::kInvalidArgument: return 5;
    case StatusCode::kSingularSystem: return 6;
    case StatusCode::kRefusedReplay: return 7;
    case StatusCode::kIncomplete: return 8;
    case StatusCode::kCancelled: return 9;
    case StatusCode::kNotFound: return 10;
    case StatusCode::kIoError: return 11;
    case StatusCode::kDeadlineExceeded: return 13;
    case StatusCode::kOverloaded: return 14;
    case StatusCode::kUnavailable: return 15;
    case StatusCode::kNoConvergence: return 16;
    case StatusCode::kInternal: return 12;
  }
  return 12;
}

/// Trips a CancellationSource once the budget elapses (--timeout). The
/// destructor releases the watchdog thread early on normal completion.
class Watchdog {
 public:
  Watchdog(std::chrono::steady_clock::time_point deadline,
           symref::support::CancellationSource source)
      : deadline_(deadline),
        source_(std::move(source)),
        thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_until(lock, deadline_, [this] { return disarmed_; })) {
            source_.cancel();
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Trips the source if the deadline has passed. Called before each
  /// request, so a budget that has run out cancels the next request even
  /// when the thread has not been scheduled yet; the thread covers expiry
  /// in the middle of a request.
  void check() {
    if (std::chrono::steady_clock::now() >= deadline_) source_.cancel();
  }

 private:
  const std::chrono::steady_clock::time_point deadline_;
  symref::support::CancellationSource source_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

bool read_file(const std::string& path, std::string* out) {
  if (path == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

/// "1m", "1m:5u", "1m:5u:bdf2" or "1m:5u:trap:fixed" -> transient request.
bool parse_tran(const std::string& text, symref::api::TransientRequest* tran) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream stream(text);
  while (std::getline(stream, part, ':')) parts.push_back(part);
  if (parts.empty() || parts.size() > 4) return false;
  const auto tstop = symref::numeric::parse_engineering(parts[0]);
  if (!tstop) return false;
  tran->tstop = *tstop;
  if (parts.size() >= 2 && !parts[1].empty()) {
    const auto tstep = symref::numeric::parse_engineering(parts[1]);
    if (!tstep) return false;
    tran->tstep = *tstep;
  }
  if (parts.size() >= 3 && !parts[2].empty()) {
    try {
      tran->method = symref::transient::method_from_name(parts[2]);
    } catch (const std::invalid_argument&) {
      return false;
    }
  }
  if (parts.size() == 4) {
    if (parts[3] == "fixed") {
      tran->adaptive = false;
    } else if (parts[3] != "adaptive") {
      return false;
    }
  }
  return true;
}

/// Split on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream stream(text);
  while (std::getline(stream, part, sep)) parts.push_back(part);
  if (!text.empty() && text.back() == sep) parts.push_back("");
  return parts;
}

bool parse_value_token(const std::string& text, double* out) {
  const auto value = symref::numeric::parse_engineering(text);
  if (!value) return false;
  *out = *value;
  return true;
}

/// A whole number n >= min_count and nothing else ("1e3" and "3x" fail).
bool parse_count(const std::string& text, int min_count, int* count) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *count);
  return error == std::errc() && stop == end && *count >= min_count;
}

/// "f0:f1" or "f0:f1:n" -> a frequency range (engineering notation) and a
/// whole count n >= min_count; `count` keeps its value when n is omitted.
bool parse_range(const std::string& text, int min_count, double* f0, double* f1, int* count) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() != 2 && parts.size() != 3) return false;
  if (!parse_value_token(parts[0], f0) || !parse_value_token(parts[1], f1)) return false;
  return parts.size() == 2 || parse_count(parts[2], min_count, count);
}

/// "r1:1k:10k:5[:log],c1:..." -> grid axes.
bool parse_grid_axes(const std::string& text, std::vector<symref::mna::ParamAxis>* axes) {
  for (const std::string& item : split(text, ',')) {
    const std::vector<std::string> fields = split(item, ':');
    if (fields.size() != 4 && fields.size() != 5) return false;
    symref::mna::ParamAxis axis;
    axis.name = fields[0];
    if (axis.name.empty()) return false;
    if (!parse_value_token(fields[1], &axis.from)) return false;
    if (!parse_value_token(fields[2], &axis.to)) return false;
    if (!parse_count(fields[3], 1, &axis.count)) return false;
    if (fields.size() == 5) {
      if (fields[4] != "log" && fields[4] != "lin") return false;
      axis.log_scale = fields[4] == "log";
    }
    axes->push_back(std::move(axis));
  }
  return !axes->empty();
}

/// "gm:4m:0.05[:uniform],cc:30p:0.1" -> Monte-Carlo dimensions.
bool parse_mc_dists(const std::string& text, std::vector<symref::mna::ParamDist>* dists) {
  for (const std::string& item : split(text, ',')) {
    const std::vector<std::string> fields = split(item, ':');
    if (fields.size() != 3 && fields.size() != 4) return false;
    symref::mna::ParamDist dist;
    dist.name = fields[0];
    if (dist.name.empty()) return false;
    if (!parse_value_token(fields[1], &dist.nominal)) return false;
    if (!parse_value_token(fields[2], &dist.rel_sigma)) return false;
    if (fields.size() == 4) {
      if (fields[3] != "uniform" && fields[3] != "gaussian") return false;
      if (fields[3] == "uniform") dist.kind = symref::mna::ParamDist::Kind::kUniform;
    }
    dists->push_back(std::move(dist));
  }
  return !dists->empty();
}

void print_usage() {
  std::fprintf(
      stderr,
      "usage: refgen <netlist-file> [--in=<node> --out=<node>] [requests] [options]\n"
      "  requests: [--refgen] [--sweep=f0:f1[:ppd]] [--poles] [--requests=file.json]\n"
      "            [--op] [--tran=tstop[:tstep[:method[:fixed]]]]\n"
      "            [--simplify [--error-budget=E] [--band=f0:f1[:points]]]\n"
      "  param sweeps: [--sweep-param=name:from:to:count[:log],...]\n"
      "            [--mc-param=name:nominal:rel_sigma[:uniform],...]\n"
      "            [--mc-samples=N] [--seed=S] [--probe=f0:f1[:ppd]]\n"
      "  transfer: [--in-neg=<node>] [--out-neg=<node>] [--transimpedance]\n"
      "  engine:   [--sigma=N] [--max-iterations=N] [--threads=N] [--timeout=SECONDS]\n"
      "  devices:  AC analyses of a netlist with D/Q/M cards run on the circuit\n"
      "            linearized at its DC operating point (--op)\n"
      "  remote:   [--connect=[host:]port] [--retry=N] [--deadline-ms=N]\n"
      "            (drive a refgend daemon)\n"
      "  output:   [--json[=path|-]] [--emit-reference] [--progress] [--name=label]\n"
      "exit codes: 0 ok, 2 usage, 3 parse_error, 4 invalid_spec, 5 invalid_argument,\n"
      "  6 singular_system, 7 refused_replay, 8 incomplete, 9 cancelled,\n"
      "  10 not_found, 11 io_error, 12 internal, 13 deadline_exceeded,\n"
      "  14 overloaded, 15 unavailable, 16 no_convergence\n");
}

/// Human-readable rendering of the successful responses.
void print_refgen_text(const symref::api::RefgenResponse& response, bool emit_reference) {
  const auto& result = response.result;
  std::fprintf(stderr, "engine: %s, %zu iterations, %d factorizations, %.1f ms%s\n",
               result.termination.c_str(), result.iterations.size(),
               result.total_evaluations, result.seconds * 1e3,
               response.from_cache ? " (cached)" : "");
  if (emit_reference) {
    symref::refgen::write_reference(std::cout, result.reference);
  } else {
    std::printf("%s", result.reference.describe(8).c_str());
  }
}

void print_sweep_text(const symref::api::SweepResponse& response) {
  std::printf("\nfreq[Hz]  |H|[dB]  phase[deg]\n");
  for (const auto& p : response.points) {
    std::printf("%9.3g  %8.3f  %9.3f\n", p.frequency_hz, p.magnitude_db, p.phase_deg);
  }
}

void print_poles_zeros_text(const symref::api::PolesZerosResponse& response) {
  std::printf("\npoles (rad/s):\n");
  for (const auto& p : response.poles) {
    std::printf("  %13.5g %+13.5g j\n", p.real(), p.imag());
  }
  std::printf("zeros (rad/s):\n");
  for (const auto& z : response.zeros) {
    std::printf("  %13.5g %+13.5g j\n", z.real(), z.imag());
  }
}

void print_param_sweep_text(const symref::api::ParamSweepResponse& response) {
  const auto& result = response.result;
  const std::size_t width = result.names.size();
  const std::size_t points = result.frequencies_hz.size();
  const std::size_t samples = width == 0 ? 0 : result.values.size() / width;
  std::fprintf(stderr,
               "param sweep: %zu samples x %zu points, %llu fresh factorization%s, "
               "%.1f ms%s\n",
               samples, points,
               static_cast<unsigned long long>(result.fresh_factorizations),
               result.fresh_factorizations == 1 ? "" : "s", result.seconds * 1e3,
               response.from_cache ? " (cached)" : "");
  std::printf("\nsample  ");
  for (const std::string& name : result.names) std::printf("%12s", name.c_str());
  std::printf("  |H(f0)|[dB]  |H(f1)|[dB]\n");
  const std::size_t shown = samples < 16 ? samples : 16;
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("%6zu  ", i);
    for (std::size_t j = 0; j < width; ++j) {
      std::printf("%12.4g", result.values[i * width + j]);
    }
    const std::complex<double> first = result.response[i * points];
    const std::complex<double> last = result.response[i * points + points - 1];
    std::printf("  %11.3f  %11.3f%s\n", symref::mna::magnitude_db(first),
                symref::mna::magnitude_db(last), result.ok[i] ? "" : "  (failed)");
  }
  if (shown < samples) std::printf("   ... %zu more samples (use --json)\n", samples - shown);
}

void print_op_text(const symref::api::OpResponse& response) {
  const auto& result = response.result;
  std::fprintf(stderr,
               "op: %d Newton iterations (%d gmin steps, %d source steps), "
               "%llu fresh factorization%s, max residual %.3e A, %.1f ms%s\n",
               result.newton_iterations, result.gmin_steps, result.source_steps,
               static_cast<unsigned long long>(result.fresh_factorizations),
               result.fresh_factorizations == 1 ? "" : "s", result.max_residual,
               result.seconds * 1e3, response.from_cache ? " (cached)" : "");
  std::printf("\nnode voltages:\n");
  for (std::size_t i = 0; i < result.node_names.size(); ++i) {
    std::printf("  %-12s %14.6g V\n", result.node_names[i].c_str(),
                result.node_voltages[i]);
  }
  if (!result.branch_names.empty()) {
    std::printf("branch currents:\n");
    for (std::size_t i = 0; i < result.branch_names.size(); ++i) {
      std::printf("  %-12s %14.6g A\n", result.branch_names[i].c_str(),
                  result.branch_currents[i]);
    }
  }
  if (!result.devices.empty()) {
    std::printf("devices:\n");
    for (const symref::dc::OpDeviceInfo& device : result.devices) {
      std::printf("  %-10s %-6s", device.name.c_str(), device.kind.c_str());
      for (const auto& [key, value] : device.values) {
        std::printf("  %s=%.6g", key.c_str(), value);
      }
      std::printf("\n");
    }
  }
}

void print_transient_text(const symref::api::TransientResponse& response) {
  const auto& result = response.result;
  std::fprintf(stderr,
               "transient: %d steps (%d LTE rejections), %d step bucket%s, "
               "%llu fresh factorization%s, %d Newton iterations, %.1f ms%s\n",
               result.steps, result.lte_rejections, result.step_size_buckets,
               result.step_size_buckets == 1 ? "" : "s",
               static_cast<unsigned long long>(result.fresh_factorizations),
               result.fresh_factorizations == 1 ? "" : "s", result.newton_iterations,
               result.seconds * 1e3, response.from_cache ? " (cached)" : "");
  const std::size_t columns =
      result.node_names.size() < 6 ? result.node_names.size() : std::size_t{6};
  std::printf("\n%-12s", "t[s]");
  for (std::size_t j = 0; j < columns; ++j) {
    std::printf("  %14s", ("v(" + result.node_names[j] + ")").c_str());
  }
  std::printf("\n");
  // Decimated table: at most ~32 rows, the final point always included.
  const std::size_t rows = result.times.size();
  const std::size_t stride = rows <= 33 ? 1 : (rows - 1 + 31) / 32;
  std::size_t last_printed = 0;
  for (std::size_t k = 0; k < rows; k += stride) {
    std::printf("%-12.5g", result.times[k]);
    for (std::size_t j = 0; j < columns; ++j) {
      std::printf("  %14.6g", result.states[k][j]);
    }
    std::printf("\n");
    last_printed = k;
  }
  if (rows > 0 && last_printed != rows - 1) {
    const std::size_t k = rows - 1;
    std::printf("%-12.5g", result.times[k]);
    for (std::size_t j = 0; j < columns; ++j) {
      std::printf("  %14.6g", result.states[k][j]);
    }
    std::printf("\n");
  }
  if (columns < result.node_names.size()) {
    std::printf("   ... %zu more nodes (use --json)\n", result.node_names.size() - columns);
  }
}

void print_simplify_text(const symref::api::SimplifyResponse& response) {
  const auto& result = response.result;
  std::fprintf(stderr,
               "simplify: %zu/%zu terms kept, %zu prune actions "
               "(%zu -> %zu elements), %llu evals, %.1f ms%s\n",
               result.kept_terms, result.enumerated_terms, result.prune_actions.size(),
               result.original_elements, result.reduced_elements,
               static_cast<unsigned long long>(result.term_evals), result.seconds * 1e3,
               response.from_cache ? " (cached)" : "");
  std::printf("\ncertificate: max rel error %.3e over [%g, %g] Hz (budget %.3e)\n",
              result.certificate.max_relative_error,
              result.certificate.frequencies_hz.empty()
                  ? 0.0
                  : result.certificate.frequencies_hz.front(),
              result.certificate.frequencies_hz.empty()
                  ? 0.0
                  : result.certificate.frequencies_hz.back(),
              result.certificate.error_budget);
  for (std::size_t i = 0; i < result.certificate.frequencies_hz.size(); ++i) {
    std::printf("  f=%10.4g Hz  rel_error=%.3e\n", result.certificate.frequencies_hz[i],
                result.certificate.relative_error[i]);
  }
  std::printf("\nnumerator   (%zu terms): %s\n", result.numerator_terms.size(),
              result.numerator_expression.c_str());
  std::printf("denominator (%zu terms): %s\n", result.denominator_terms.size(),
              result.denominator_expression.c_str());
}

void print_batch_text(const symref::api::BatchResponse& response) {
  std::printf("\nbatch: %zu items, %.1f ms\n", response.items.size(),
              response.seconds * 1e3);
  for (std::size_t i = 0; i < response.items.size(); ++i) {
    const auto& item = response.items[i];
    std::printf("  item %zu: %s\n", i,
                item.status.ok() ? item.response.result.termination.c_str()
                                 : item.status.to_string().c_str());
  }
}

/// Human-readable rendering of a successful outcome.
void print_text(const JobOutcome& outcome, bool emit_reference) {
  switch (outcome.type) {
    case AnyRequest::Type::kRefgen: print_refgen_text(outcome.refgen, emit_reference); break;
    case AnyRequest::Type::kSweep: print_sweep_text(outcome.sweep); break;
    case AnyRequest::Type::kPolesZeros: print_poles_zeros_text(outcome.poles_zeros); break;
    case AnyRequest::Type::kBatch: print_batch_text(outcome.batch); break;
    case AnyRequest::Type::kParamSweep: print_param_sweep_text(outcome.param_sweep); break;
    case AnyRequest::Type::kSimplify: print_simplify_text(outcome.simplify); break;
    case AnyRequest::Type::kOp: print_op_text(outcome.op); break;
    case AnyRequest::Type::kTransient: print_transient_text(outcome.transient); break;
  }
}

/// The --progress line of one engine iteration, run locally or reported by
/// a daemon's progress event.
void print_iteration(int index, const char* purpose, double f_scale, double g_scale, int points,
                     int den_new, int num_new) {
  std::fprintf(stderr, "  iter %d (%s): f=%.3g g=%.3g points=%d den+%d num+%d\n", index,
               purpose, f_scale, g_scale, points, den_new, num_new);
}

/// Track the first failed status of the session (drives the exit code).
struct FailureTracker {
  Status first;
  void record(const Status& status) {
    if (!status.ok() && first.ok()) first = status;
  }
  [[nodiscard]] int exit_code() const {
    return first.ok() ? 0 : exit_code_for(first.code());
  }
};

// --- Remote execution against a refgend daemon (--connect) -----------------

/// One blocking RPC: write the request line, then read lines until our
/// reply arrives. Event lines encountered on the way are printed like local
/// --progress (progress) or ignored (done — the session uses "wait" replies
/// instead).
Status remote_call(symref::tools::FdTransport& transport, int* next_id,
                   const std::string& method, Json params, bool progress, Json* result) {
  Json request = Json::object();
  const int id = (*next_id)++;
  request.set("id", id);
  request.set("method", method);
  request.set("params", std::move(params));
  if (!transport.write_line(request.dump())) {
    return Status::error(StatusCode::kIoError, "connection lost while sending " + method);
  }
  std::string line;
  while (transport.read_line(&line)) {
    auto parsed = Json::parse(line);
    if (!parsed.ok()) continue;  // not ours to diagnose
    const Json& message = parsed.value();
    if (const Json* event = message.find("event"); event != nullptr) {
      if (progress && event->as_string() == "progress") {
        const auto field = [&message](const char* key) {
          const Json* value = message.find(key);
          return value != nullptr ? *value : Json();
        };
        print_iteration(field("iteration").as_int(), field("purpose").as_string().c_str(),
                        field("f_scale").as_number(), field("g_scale").as_number(),
                        field("points").as_int(), field("den_new_coefficients").as_int(),
                        field("num_new_coefficients").as_int());
      }
      continue;
    }
    if (const Json* error = message.find("error"); error != nullptr) {
      const Json* code = error->find("code");
      const Json* text = error->find("message");
      const Json* line = error->find("line");
      const Json* column = error->find("column");
      return Status::error(
          symref::api::status_code_from_name(code ? code->as_string() : "internal"),
          method + ": " + (text ? text->as_string() : "remote error"),
          {line ? line->as_int() : 0, column ? column->as_int() : 0});
    }
    if (const Json* payload = message.find("result"); payload != nullptr) {
      *result = *payload;
      return Status();
    }
  }
  return Status::error(StatusCode::kIoError, "connection closed before " + method + " reply");
}

/// The first failure a response payload ({"status": {"code": ...}})
/// reports: its own status, else the first failed item of a batch, which
/// succeeds as a whole. Drives the exit code of local and --connect
/// sessions alike.
Status embedded_status(const Json& payload) {
  const Json* status = payload.find("status");
  const Json* code = status != nullptr ? status->find("code") : nullptr;
  if (code == nullptr) {
    return Status::error(StatusCode::kInternal, "response without a status");
  }
  const StatusCode parsed = symref::api::status_code_from_name(code->as_string());
  if (parsed != StatusCode::kOk) {
    const Json* message = status->find("message");
    return Status::error(parsed, message != nullptr ? message->as_string() : "remote failure");
  }
  if (const Json* items = payload.find("items"); items != nullptr) {
    for (const Json& item : items->items()) {
      if (Status failed = embedded_status(item); !failed.ok()) return failed;
    }
  }
  return Status();
}

/// Backoff before retry attempt `k` (0-based): 100ms doubling, capped at
/// 2s, with a deterministic jitter factor in [0.5, 1.5) so a herd of
/// restarted clients does not re-dial in lockstep.
std::chrono::milliseconds retry_backoff(int k) {
  double delay_ms = 100.0;
  for (int i = 0; i < k && delay_ms < 2000.0; ++i) delay_ms *= 2.0;
  if (delay_ms > 2000.0) delay_ms = 2000.0;
  const auto mixed = static_cast<std::uint32_t>(k + 1) * 2654435761u;
  delay_ms *= 0.5 + static_cast<double>(mixed % 1024u) / 1024.0;
  return std::chrono::milliseconds(static_cast<long>(delay_ms));
}

/// Dial with up to `retries` extra attempts, backing off between failures —
/// rides out a daemon mid-restart.
int dial_with_retry(const std::string& target, int retries, std::string* error) {
  for (int attempt = 0;; ++attempt) {
    const int fd = symref::tools::dial(target, error);
    if (fd >= 0 || attempt >= retries) return fd;
    std::fprintf(stderr, "refgen: %s; retrying\n", error->c_str());
    std::this_thread::sleep_for(retry_backoff(attempt));
  }
}

/// Write the session's one JSON envelope where --json points: stdout for "-"
/// (or a bare --json), else the named file. Nothing is written without
/// --json, or for a null envelope (a --connect session that never reached
/// the daemon). Returns `code`, or 2 when the file cannot be written.
int write_envelope(const symref::support::CliArgs& args, const Json& envelope, int code) {
  if (!args.has("json") || envelope.is_null()) return code;
  const std::string path = args.get("json", "-");
  const std::string text = envelope.dump(2);
  if (path == "-" || path.empty()) {
    std::printf("%s\n", text.c_str());
    return code;
  }
  std::ofstream file(path);
  file << text << '\n';
  if (!file) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return 2;
  }
  return code;
}

/// Report a session whose netlist did not compile, local or remote: its
/// envelope keeps `status`, `ok: false` and `responses: []` (no `circuit`),
/// and the error goes to stderr. Returns the exit code.
int fail_compile(const Status& status, Json* envelope) {
  *envelope = Json::object();
  envelope->set("tool", "refgen");
  envelope->set("status", symref::api::to_json(status));
  envelope->set("ok", false);
  envelope->set("responses", Json::array());
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return exit_code_for(status.code());
}

/// One attempt of a --connect session. Once the daemon is dialed, sets
/// `envelope` to the attempt's envelope; run() writes the last one. Returns
/// the exit code.
int run_connected(const symref::support::CliArgs& args, const std::string& netlist_text,
                  const std::vector<AnyRequest>& requests, bool json_mode, bool progress,
                  Json* envelope) {
  // Numeric flags are read before dialing, so a bad one leaves no circuit
  // compiled on the daemon.
  const int retries = args.get_int("retry", 0);
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  std::string error;
  const int fd = dial_with_retry(args.get("connect"), retries, &error);
  if (fd < 0) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  symref::tools::FdTransport transport(fd);
  int next_id = 1;

  Json compile_params = Json::object();
  compile_params.set("netlist", netlist_text);
  if (args.has("name")) compile_params.set("name", args.get("name"));
  Json circuit;
  Status status = remote_call(transport, &next_id, "compile", std::move(compile_params),
                              progress, &circuit);
  if (!status.ok()) return fail_compile(status, envelope);
  const Json* circuit_id = circuit.find("circuit_id");
  if (circuit_id == nullptr || !circuit_id->is_string()) {
    return fail_compile(
        Status::error(StatusCode::kInternal, "daemon compile reply without circuit_id"),
        envelope);
  }
  if (!json_mode) {
    std::fprintf(stderr, "compiled on daemon: %s (dim %d)\n",
                 circuit.find("name") ? circuit.find("name")->as_string().c_str() : "?",
                 circuit.find("dim") ? circuit.find("dim")->as_int() : 0);
  }

  FailureTracker failures;
  Json responses = Json::array();
  for (const AnyRequest& request : requests) {
    Json submit_params = Json::object();
    submit_params.set("circuit_id", circuit_id->as_string());
    submit_params.set("request", symref::api::to_json(request));
    if (progress) submit_params.set("progress", true);
    if (args.has("deadline-ms")) submit_params.set("deadline_ms", deadline_ms);
    if (args.has("retry")) {
      // Server-side retry of transient failures mirrors the client dial
      // retries: N extra attempts = N+1 total.
      submit_params.set("max_attempts", retries + 1);
    }
    Json submitted;
    Json waited;
    status = remote_call(transport, &next_id, "submit", std::move(submit_params), progress,
                         &submitted);
    const Json* job_id = submitted.find("job_id");
    if (status.ok()) {
      Json wait_params = Json::object();
      wait_params.set("job_id", job_id != nullptr ? job_id->as_string() : "");
      status = remote_call(transport, &next_id, "wait", std::move(wait_params), progress,
                           &waited);
    }
    const Json* payload = waited.find("result");
    Json response = payload != nullptr ? *payload : Json::object();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      response = symref::api::error_response(symref::api::request_type_name(request.type), status);
    }
    const Status job_status = embedded_status(response);
    failures.record(job_status);
    if (status.ok() && !json_mode) {
      std::fprintf(stderr, "%s %s: %s\n",
                   job_id != nullptr ? job_id->as_string().c_str() : "?",
                   symref::api::request_type_name(request.type),
                   job_status.ok() ? "ok" : job_status.to_string().c_str());
    }
    responses.push_back(std::move(response));
  }

  // This session's circuit is ephemeral: evict it so repeated --connect
  // invocations do not accumulate compiled circuits in the daemon's
  // registry. Best-effort — a lost connection already failed above.
  Json evicted;
  Json evict_params = Json::object();
  evict_params.set("circuit_id", circuit_id->as_string());
  (void)remote_call(transport, &next_id, "evict", std::move(evict_params), false, &evicted);

  *envelope = Json::object();
  envelope->set("tool", "refgen");
  envelope->set("status", symref::api::to_json(Status()));
  envelope->set("connect", args.get("connect"));
  envelope->set("circuit", std::move(circuit));
  envelope->set("ok", failures.exit_code() == 0);
  envelope->set("responses", std::move(responses));
  return failures.exit_code();
}

/// The whole session; a numeric flag that does not parse throws
/// support::FlagError, which main() turns into exit 2.
int run(const symref::support::CliArgs& args) {
  if (args.positional().empty()) {
    print_usage();
    return 2;
  }
  // A flag the mode does not use is a usage error, before anything is
  // compiled or dialed.
  if (args.has("connect") && args.has("timeout")) {
    std::fprintf(stderr, "error: --timeout applies to local runs; with --connect, "
                         "use --deadline-ms\n");
    return 2;
  }
  for (const char* flag : {"retry", "deadline-ms"}) {
    if (!args.has("connect") && args.has(flag)) {
      std::fprintf(stderr, "error: --%s applies only with --connect\n", flag);
      return 2;
    }
  }

  std::string netlist_text;
  if (!read_file(args.positional().front(), &netlist_text)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", args.positional().front().c_str());
    return 2;
  }

  const bool json_mode = args.has("json");
  const bool progress = args.has("progress");

  // --- Build the request session --------------------------------------------
  std::vector<AnyRequest> requests;
  if (args.has("requests")) {
    std::string request_text;
    if (!read_file(args.get("requests", "-"), &request_text)) {
      std::fprintf(stderr, "error: cannot open requests file '%s'\n",
                   args.get("requests").c_str());
      return 2;
    }
    auto parsed_json = Json::parse(request_text);
    if (!parsed_json.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed_json.status().to_string().c_str());
      return 2;
    }
    auto parsed = symref::api::requests_from_json(parsed_json.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().to_string().c_str());
      return 2;
    }
    requests = parsed.take();
  } else {
    // --op and --tran need no transfer ports — an op-only or transient-only
    // session is legal on a bare deck; every other flag-built request needs
    // --in/--out.
    const bool want_op = args.has("op");
    const bool want_tran = args.has("tran");
    if (want_op) {
      AnyRequest request;
      request.type = AnyRequest::Type::kOp;
      requests.push_back(std::move(request));
    }
    if (want_tran) {
      AnyRequest request;
      request.type = AnyRequest::Type::kTransient;
      if (!parse_tran(args.get("tran"), &request.transient)) {
        std::fprintf(stderr,
                     "error: bad --tran '%s' (want tstop[:tstep[:method[:fixed]]], "
                     "method trap|bdf1|bdf2)\n",
                     args.get("tran").c_str());
        return 2;
      }
      requests.push_back(std::move(request));
    }
    if (!args.has("in") || !args.has("out")) {
      if (!want_op && !want_tran) {
        print_usage();
        return 2;
      }
    } else {
      symref::mna::TransferSpec spec;
      spec.kind = args.has("transimpedance")
                      ? symref::mna::TransferSpec::Kind::Transimpedance
                      : symref::mna::TransferSpec::Kind::VoltageGain;
      spec.in_pos = args.get("in");
      spec.in_neg = args.get("in-neg", "0");
      spec.out_pos = args.get("out");
      spec.out_neg = args.get("out-neg", "0");

      symref::refgen::AdaptiveOptions options;
      options.sigma = args.get_int("sigma", 6);
      options.max_iterations = args.get_int("max-iterations", 64);
      options.threads = args.get_int("threads", 1);

      const bool want_sweep = args.has("sweep");
      const bool want_poles = args.has("poles");
      const bool want_param_sweep = args.has("sweep-param") || args.has("mc-param");
      const bool want_simplify = args.has("simplify");
      if (args.has("sweep-param") && args.has("mc-param")) {
        std::fprintf(stderr, "error: --sweep-param and --mc-param are mutually exclusive\n");
        return 2;
      }
      if (args.has("refgen") || (!want_sweep && !want_poles && !want_param_sweep &&
                                 !want_simplify && !want_op && !want_tran)) {
        AnyRequest request;
        request.type = AnyRequest::Type::kRefgen;
        request.refgen = {spec, options};
        requests.push_back(std::move(request));
      }
      if (want_sweep) {
        AnyRequest request;
        request.type = AnyRequest::Type::kSweep;
        request.sweep.spec = spec;
        request.sweep.threads = options.threads;
        if (!parse_range(args.get("sweep"), 1, &request.sweep.f_start_hz,
                         &request.sweep.f_stop_hz, &request.sweep.points_per_decade)) {
          std::fprintf(stderr, "error: bad --sweep range '%s' (want f_start:f_stop[:ppd])\n",
                       args.get("sweep").c_str());
          return 2;
        }
        requests.push_back(std::move(request));
      }
      if (want_poles) {
        AnyRequest request;
        request.type = AnyRequest::Type::kPolesZeros;
        request.poles_zeros = {spec, options};
        requests.push_back(std::move(request));
      }
      if (want_param_sweep) {
        AnyRequest request;
        request.type = AnyRequest::Type::kParamSweep;
        symref::api::ParamSweepRequest& sweep = request.param_sweep;
        sweep.spec = spec;
        sweep.threads = options.threads;
        if (args.has("sweep-param")) {
          sweep.mode = symref::api::ParamSweepRequest::Mode::kGrid;
          if (!parse_grid_axes(args.get("sweep-param"), &sweep.axes)) {
            std::fprintf(stderr,
                         "error: bad --sweep-param '%s' (want name:from:to:count[:log],...)\n",
                         args.get("sweep-param").c_str());
            return 2;
          }
        } else {
          sweep.mode = symref::api::ParamSweepRequest::Mode::kMonteCarlo;
          if (!parse_mc_dists(args.get("mc-param"), &sweep.dists)) {
            std::fprintf(
                stderr,
                "error: bad --mc-param '%s' (want name:nominal:rel_sigma[:uniform],...)\n",
                args.get("mc-param").c_str());
            return 2;
          }
          sweep.samples = args.get_int("mc-samples", 64);
          const double seed = args.get_double("seed", 0.0);
          if (seed < 0.0 || seed != static_cast<double>(static_cast<std::uint64_t>(seed))) {
            std::fprintf(stderr, "error: bad --seed '%s'\n", args.get("seed").c_str());
            return 2;
          }
          sweep.seed = static_cast<std::uint64_t>(seed);
        }
        if (args.has("probe") && !parse_range(args.get("probe"), 1, &sweep.f_start_hz,
                                              &sweep.f_stop_hz, &sweep.points_per_decade)) {
          std::fprintf(stderr, "error: bad --probe range '%s' (want f_start:f_stop[:ppd])\n",
                       args.get("probe").c_str());
          return 2;
        }
        requests.push_back(std::move(request));
      }
      if (want_simplify) {
        AnyRequest request;
        request.type = AnyRequest::Type::kSimplify;
        request.simplify.spec = spec;
        symref::refgen::SimplifyOptions& simplify = request.simplify.options;
        simplify.engine = options;
        simplify.error_budget = args.get_double("error-budget", 0.01);
        if (simplify.error_budget <= 0.0) {
          std::fprintf(stderr, "error: bad --error-budget '%s' (want a value > 0)\n",
                       args.get("error-budget").c_str());
          return 2;
        }
        if (args.has("band") && !parse_range(args.get("band"), 2, &simplify.f_start_hz,
                                             &simplify.f_stop_hz, &simplify.band_points)) {
          std::fprintf(stderr,
                       "error: bad --band '%s' (want f_start:f_stop[:points], points >= 2)\n",
                       args.get("band").c_str());
          return 2;
        }
        requests.push_back(std::move(request));
      }
    }
  }
  // --- Remote session (--connect): the daemon executes, we render -----------
  Json envelope;  // the session's one --json document, written last
  if (args.has("connect")) {
    // An io_error session (connection died mid-flight) is transient from
    // the client's seat: with --retry, re-dial and replay the whole session
    // — requests are idempotent (and store-backed daemons replay warm). Only
    // the last attempt that reached the daemon leaves its envelope.
    const int retries = args.get_int("retry", 0);
    int code = 0;
    for (int attempt = 0;; ++attempt) {
      code = run_connected(args, netlist_text, requests, json_mode, progress, &envelope);
      if (code != exit_code_for(StatusCode::kIoError) || attempt >= retries) break;
      std::fprintf(stderr, "refgen: session failed with io_error; retrying\n");
      std::this_thread::sleep_for(retry_backoff(attempt));
    }
    return write_envelope(args, envelope, code);
  }

  // --- Local --timeout: one cancellation source covers the whole session ----
  symref::support::CancellationSource timeout_source;
  std::unique_ptr<Watchdog> watchdog;
  if (args.has("timeout")) {
    const auto deadline =
        symref::support::deadline_after_ms(args.get_double("timeout", 0.0) * 1e3);
    if (!deadline) {
      std::fprintf(stderr,
                   "error: bad --timeout '%s' (want seconds > 0 the clock can hold, "
                   "below about 9.2e9)\n",
                   args.get("timeout").c_str());
      return 2;
    }
    watchdog = std::make_unique<Watchdog>(*deadline, timeout_source);
  }

  // --- Compile once, serve the session --------------------------------------
  const symref::api::Service service;
  auto compiled = service.compile_netlist(netlist_text, args.get("name"));
  if (!compiled.ok()) {
    const int code = fail_compile(compiled.status(), &envelope);
    return write_envelope(args, envelope, code);
  }
  const symref::api::CircuitHandle handle = compiled.take();
  if (!json_mode) std::fprintf(stderr, "%s\n", handle.summary().c_str());

  symref::refgen::ProgressObserver printer;
  if (progress) {
    printer = [](const symref::refgen::IterationRecord& record) {
      print_iteration(record.index, symref::refgen::purpose_name(record.purpose), record.f_scale,
                      record.g_scale, record.points, record.den_new_coefficients,
                      record.num_new_coefficients);
    };
  }
  FailureTracker failures;
  Json responses = Json::array();
  for (AnyRequest& request : requests) {
    if (watchdog) watchdog->check();
    const JobOutcome outcome = symref::api::execute(service, handle, std::move(request),
                                                    timeout_source.token(), printer);
    Json response = symref::api::to_json(outcome);
    failures.record(embedded_status(response));
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "error: %s\n", outcome.status.to_string().c_str());
    } else if (!json_mode) {
      print_text(outcome, args.has("emit-reference"));
    }
    responses.push_back(std::move(response));
  }

  Json circuit = Json::object();
  circuit.set("name", handle.name());
  circuit.set("summary", handle.summary());
  circuit.set("nodes", handle.circuit().node_count());
  circuit.set("elements", static_cast<double>(handle.circuit().element_count()));
  circuit.set("dim", handle.dim());
  circuit.set("order_bound", handle.order_bound());

  envelope = Json::object();
  envelope.set("tool", "refgen");
  envelope.set("status", symref::api::to_json(Status()));
  envelope.set("circuit", std::move(circuit));
  envelope.set("ok", failures.exit_code() == 0);
  envelope.set("responses", std::move(responses));
  return write_envelope(args, envelope, failures.exit_code());
}

}  // namespace

int main(int argc, char** argv) {
  return symref::support::run_main([&] {
    return run(symref::support::CliArgs(
        argc, argv,
        {"in", "out", "in-neg", "out-neg", "sigma", "max-iterations", "threads", "sweep",
         "sweep-param", "mc-param", "mc-samples", "seed", "probe", "requests", "json", "name",
         "timeout", "connect", "retry", "deadline-ms", "error-budget", "band", "tran"},
        {"transimpedance", "refgen", "op", "poles", "simplify", "emit-reference", "progress"}));
  });
}
