#include "api/status.h"

#include <exception>
#include <new>
#include <stdexcept>

#include "dc/newton.h"
#include "mna/errors.h"
#include "netlist/parser.h"
#include "support/cancellation.h"
#include "symbolic/errors.h"

namespace symref::api {

const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kInvalidSpec: return "invalid_spec";
    case StatusCode::kSingularSystem: return "singular_system";
    case StatusCode::kRefusedReplay: return "refused_replay";
    case StatusCode::kIncomplete: return "incomplete";
    case StatusCode::kNoConvergence: return "no_convergence";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "internal";
}

StatusCode status_code_from_name(std::string_view name) noexcept {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kInvalidSpec, StatusCode::kSingularSystem, StatusCode::kRefusedReplay,
        StatusCode::kIncomplete, StatusCode::kNoConvergence, StatusCode::kCancelled, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kDeadlineExceeded, StatusCode::kOverloaded,
        StatusCode::kUnavailable}) {
    if (name == status_code_name(code)) return code;
  }
  return StatusCode::kInternal;
}

bool status_is_transient(StatusCode code) noexcept {
  return code == StatusCode::kUnavailable || code == StatusCode::kOverloaded ||
         code == StatusCode::kIoError;
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string out = status_code_name(code_);
  out += ": ";
  out += message_;
  if (location_.known()) {
    out += " (line " + std::to_string(location_.line);
    if (location_.column > 0) out += ", column " + std::to_string(location_.column);
    out += ")";
  }
  return out;
}

Status status_from_current_exception() noexcept {
  try {
    throw;
  } catch (const netlist::ParseError& e) {
    return Status::error(StatusCode::kParseError, e.what(), {e.line(), e.column()});
  } catch (const mna::SpecError& e) {
    return Status::error(StatusCode::kInvalidSpec, e.what());
  } catch (const mna::SingularSystemError& e) {
    return Status::error(StatusCode::kSingularSystem, e.what());
  } catch (const dc::NoConvergenceError& e) {
    return Status::error(StatusCode::kNoConvergence, e.what());
  } catch (const support::CancelledError& e) {
    return Status::error(StatusCode::kCancelled, e.what());
  } catch (const symbolic::NonAdmissibleError& e) {
    // Before std::invalid_argument (its base): a non-admissible spec/graph
    // is a spec problem, not a generic bad argument.
    return Status::error(StatusCode::kInvalidSpec, e.what());
  } catch (const symbolic::TermEnumerationError& e) {
    return Status::error(StatusCode::kIncomplete, e.what());
  } catch (const std::invalid_argument& e) {
    return Status::error(StatusCode::kInvalidArgument, e.what());
  } catch (const std::bad_alloc& e) {
    return Status::error(StatusCode::kUnavailable, std::string("allocation failed: ") + e.what());
  } catch (const std::exception& e) {
    return Status::error(StatusCode::kInternal, e.what());
  } catch (...) {
    return Status::error(StatusCode::kInternal, "unknown error");
  }
}

}  // namespace symref::api
