#include "support/cli.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>

namespace symref::support {

CliArgs::CliArgs(int argc, const char* const* argv, std::initializer_list<const char*> value_flags,
                 std::initializer_list<const char*> switches) {
  const std::set<std::string> takes_value(value_flags.begin(), value_flags.end());
  const std::set<std::string> is_switch(switches.begin(), switches.end());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      const bool value_flag = takes_value.count(name) != 0;
      if (!value_flag && is_switch.count(name) == 0) throw FlagError("unknown flag --" + name);
      if (eq != std::string::npos) {
        if (!value_flag) throw FlagError("--" + name + " takes no value");
        flags_[name] = arg.substr(eq + 1);
      } else if (value_flag && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        // A value flag consumes the next token unless that token is itself a
        // flag (a user who wrote `--json --threads 8` forgot the path; do
        // not swallow `--threads`).
        flags_[name] = argv[++i];
      } else {
        flags_[name] = "";
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

int run_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const FlagError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

}  // namespace symref::support
