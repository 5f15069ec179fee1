#include "support/cli.h"

#include <charconv>
#include <cmath>
#include <set>

namespace symref::support {

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<const char*> value_flags) {
  const std::set<std::string> takes_value(value_flags.begin(), value_flags.end());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        const std::string name = arg.substr(2);
        // A value flag consumes the next token unless that token is itself a
        // flag (a user who wrote `--json --threads 8` forgot the path; do
        // not swallow `--threads`).
        if (takes_value.count(name) != 0 && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[name] = argv[++i];
        } else {
          flags_[name] = "";
        }
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) != 0; }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  // A value-less flag (`--json` with the path forgotten) falls back like an
  // absent one.
  const auto it = flags_.find(name);
  return it == flags_.end() || it->second.empty() ? fallback : it->second;
}

namespace {

/// Parses all of `text` as T, or throws FlagError naming `--name`.
template <typename T>
T parse_whole(const std::string& name, const std::string& text, const char* want) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(static_cast<double>(value))) {
    throw FlagError("bad --" + name + " '" + text + "' (want " + want + ")");
  }
  return value;
}

}  // namespace

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_whole<double>(name, it->second, "a number");
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_whole<int>(name, it->second, "a whole number");
}

}  // namespace symref::support
