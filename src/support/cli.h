// Tiny flag parser shared by the tools, examples and benches:
// `--key=value` / `--flag`, plus space-separated values (`--key value`) for
// flags the caller declares as value-taking. The caller declares every flag
// it reads, so a mistyped or retired flag is an error, never silently
// ignored. Anything fancier belongs to the user.
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace symref::support {

/// A flag the caller did not declare, a switch given a value, or a numeric
/// flag whose value does not parse whole or does not fit the requested type;
/// what() names the flag (and the value).
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class CliArgs {
 public:
  /// `value_flags` and `switches` name (without the leading `--`) every
  /// flag the caller reads; any other flag throws FlagError naming it. A
  /// value flag consumes the following argument as its value when written
  /// space-separated (`--json out.json`); the `--json=out.json` form always
  /// works. A switch never consumes the next argument, and a switch written
  /// with a value (`--poles=false`) throws FlagError.
  CliArgs(int argc, const char* const* argv, std::initializer_list<const char*> value_flags,
          std::initializer_list<const char*> switches = {});

  /// True if `--name` or `--name=...` was passed.
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of `--name=value`, or `fallback` when absent or empty.
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback = "") const;

  /// Numeric value of `--name=value`, or `fallback` when the flag is absent.
  /// A present value is read only when all of it parses and fits the type:
  /// a finite double for get_double(), a whole number in int's range for
  /// get_int() ("1e3" and "3.5" are not). Anything else, an empty value
  /// included, throws FlagError.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;

  /// Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Runs a program's `main` body and returns its exit code; a FlagError that
/// escapes it prints "error: <what>" on stderr and returns 2, the usage
/// exit code.
int run_main(const std::function<int()>& body);

}  // namespace symref::support
