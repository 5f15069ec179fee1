// Structured error propagation for the public service facade.
//
// Everything inside src/ reports failure with exceptions; nothing outside
// src/api/ should have to. `Status` is the boundary type: an error code a
// remote caller can switch on, a human-readable message, and (for netlist
// problems) the source position. `Result<T>` carries either a value or a
// non-ok Status — the return type of every api::Service entry point, so no
// exception ever crosses the facade.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>

namespace symref::api {

/// Stable error taxonomy of the facade. Codes, not messages, are the
/// machine-readable contract (docs/api.md lists the mapping).
enum class StatusCode {
  kOk = 0,
  /// Malformed request outside the other categories (bad ranges, counts,
  /// or a circuit the canonicalizer rejects).
  kInvalidArgument,
  /// Netlist text failed to parse; location() points at the offending card.
  kParseError,
  /// TransferSpec names unknown, floating, or degenerate nodes.
  kInvalidSpec,
  /// The (scaled) system admitted no acceptable pivot — structurally or
  /// numerically singular at the request's operating point.
  kSingularSystem,
  /// Reserved: no request raises it today (a refused plan replay always
  /// falls back to a fresh factorization). The wire name and CLI exit code
  /// stay assigned.
  kRefusedReplay,
  /// The engine terminated without a complete reference (max_iterations,
  /// no_valid_region, gap_unresolved).
  kIncomplete,
  /// The Newton .op solver exhausted its whole homotopy ladder (plain
  /// damped iteration, gmin stepping, source stepping) without converging.
  /// Permanent for the identical request; a different initial guess,
  /// looser tolerances, or a fixed netlist may succeed.
  kNoConvergence,
  /// The request was cancelled at a cooperative checkpoint (job cancel,
  /// client timeout) before producing a complete result.
  kCancelled,
  /// A named resource (registry circuit_id, job_id) does not exist — never
  /// existed, or was evicted/forgotten.
  kNotFound,
  /// File or serialized-payload I/O failed.
  kIoError,
  /// The request's deadline_ms elapsed before a complete result; the job was
  /// cancelled at the next cooperative checkpoint.
  kDeadlineExceeded,
  /// The server shed the request because its work queue was at capacity.
  /// Transient by definition: retry after backoff.
  kOverloaded,
  /// A transient resource failure (allocation pressure, an injected
  /// work-queue fault) — the request itself is fine; retrying may succeed.
  kUnavailable,
  /// Unexpected failure; the message is the caught exception text.
  kInternal,
};

/// Stable snake_case token for a code ("ok", "parse_error", ...); these are
/// the strings used in JSON payloads.
const char* status_code_name(StatusCode code) noexcept;

/// Inverse of status_code_name — remote clients mapping wire tokens back to
/// codes. Unknown tokens come back as kInternal.
StatusCode status_code_from_name(std::string_view name) noexcept;

/// Retry classification: true for codes that describe a condition expected
/// to clear on its own (kUnavailable, kOverloaded, kIoError). Everything
/// else — bad requests, singular systems, cancellation — is permanent:
/// resubmitting the identical request cannot succeed.
[[nodiscard]] bool status_is_transient(StatusCode code) noexcept;

/// 1-based position in the source netlist (or request payload); 0 = unknown.
struct SourceLocation {
  int line = 0;
  int column = 0;

  [[nodiscard]] bool known() const noexcept { return line > 0; }
  friend bool operator==(const SourceLocation& a, const SourceLocation& b) noexcept {
    return a.line == b.line && a.column == b.column;
  }
};

class Status {
 public:
  /// Default state is success.
  Status() noexcept = default;

  static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code == StatusCode::kOk ? StatusCode::kInternal : code;
    s.message_ = std::move(message);
    return s;
  }
  static Status error(StatusCode code, std::string message, SourceLocation location) {
    Status s = error(code, std::move(message));
    s.location_ = location;
    return s;
  }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }
  [[nodiscard]] const SourceLocation& location() const noexcept { return location_; }

  /// "parse_error: unknown element card 'Z1' (line 3, column 1)".
  [[nodiscard]] std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  SourceLocation location_;
};

/// Map the in-flight exception to a Status. Must be called inside a catch
/// block (it rethrows to dispatch on type):
///
///   try { ... } catch (...) { return api::status_from_current_exception(); }
///
/// netlist::ParseError -> kParseError (with line/column), mna::SpecError ->
/// kInvalidSpec, mna::SingularSystemError -> kSingularSystem,
/// dc::NoConvergenceError -> kNoConvergence, support::CancelledError ->
/// kCancelled,
/// std::invalid_argument -> kInvalidArgument, std::bad_alloc ->
/// kUnavailable (allocation pressure is transient — retryable), anything
/// else -> kInternal.
[[nodiscard]] Status status_from_current_exception() noexcept;

/// A value or a non-ok Status. `status()` is always valid; `value()` only
/// when ok(). Moving the value out with take() is allowed once.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result from a Status requires an error");
    if (status_.ok()) status_ = Status::error(StatusCode::kInternal, "ok status without value");
  }

  [[nodiscard]] bool ok() const noexcept { return status_.ok(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] const T& value() const {
    assert(ok());
    return value_;
  }
  [[nodiscard]] T& value() {
    assert(ok());
    return value_;
  }
  [[nodiscard]] T take() {
    assert(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace symref::api
