// Support utilities: tables, CLI parsing, RNG determinism, logging.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/cli.h"
#include "support/log.h"
#include "support/random.h"
#include "support/table.h"
#include "support/timer.h"

namespace symref::support {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.set_header({"a", "long-header", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"wide-cell", "x", "y"});
  const std::string out = table.str();
  // Header separator present, all rows same length.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  int lines = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 4);  // header + rule + 2 rows
  EXPECT_NE(out.find("long-header"), std::string::npos);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NoHeaderWorks) {
  TextTable table;
  table.add_row({"x", "y"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.str().find("x | y"), std::string::npos);
}

TEST(FormatSci, SignificantDigits) {
  EXPECT_EQ(format_sci(1234.5, 3), "1.23e+03");
  EXPECT_EQ(format_sci(-1.28095e124, 6), "-1.28095e+124");
}

TEST(CliArgs, FlagsAndPositional) {
  const char* argv[] = {"prog", "--alpha=3.5", "--flag", "file.cir", "--name=x"};
  const CliArgs args(5, argv, {"alpha", "name"}, {"flag"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_EQ(args.get("name"), "x");
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 4), 4);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.5), 0.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.cir");
}

TEST(CliArgs, NumberMustParseWholeAndFit) {
  const char* argv[] = {"prog",      "--word=abc",  "--tail=7x",      "--fraction=3.5",
                        "--exp=1e3", "--huge=1e10", "--overflow=1e999", "--nan=nan",
                        "--empty=",  "--neg=-12",   "--bare"};
  const CliArgs args(11, argv,
                     {"word", "tail", "fraction", "exp", "huge", "overflow", "nan", "empty", "neg"},
                     {"bare"});
  // Doubles: all of the value, finite.
  EXPECT_DOUBLE_EQ(args.get_double("fraction", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0.0), 1e3);
  EXPECT_DOUBLE_EQ(args.get_double("neg", 0.0), -12.0);
  for (const char* bad : {"word", "tail", "overflow", "nan", "empty", "bare"}) {
    EXPECT_THROW((void)args.get_double(bad, 7.0), FlagError) << bad;
  }
  // Ints: a whole number in int's range, digits only.
  EXPECT_EQ(args.get_int("neg", 0), -12);
  for (const char* bad : {"word", "tail", "fraction", "exp", "huge", "empty", "bare"}) {
    EXPECT_THROW((void)args.get_int(bad, 7), FlagError) << bad;
  }
  // The error names the flag and its value.
  try {
    (void)args.get_int("tail", 0);
    ADD_FAILURE() << "no FlagError";
  } catch (const FlagError& error) {
    EXPECT_NE(std::string(error.what()).find("--tail '7x'"), std::string::npos) << error.what();
  }
}

TEST(CliArgs, DeclaredValueFlagConsumesNextArgument) {
  const char* argv[] = {"prog", "--json", "out.json", "--threads", "8", "--flag", "pos"};
  const CliArgs args(7, argv, {"json", "threads"}, {"flag"});
  EXPECT_EQ(args.get("json"), "out.json");
  EXPECT_EQ(args.get_int("threads", 1), 8);
  EXPECT_TRUE(args.has("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(CliArgs, SwitchDoesNotConsumeNextArgument) {
  // A switch keeps the token after it positional; a value flag written
  // `--json=x` needs no following token.
  const char* argv[] = {"prog", "--flag", "value", "--json=x"};
  const CliArgs args(4, argv, {"json"}, {"flag"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag", ""), "");
  EXPECT_EQ(args.get("json"), "x");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "value");
  // A switch takes no value: `--flag=false` would read as the bare switch.
  const char* valued[] = {"prog", "--flag=false"};
  try {
    (void)CliArgs(2, valued, {"json"}, {"flag"});
    ADD_FAILURE() << "no FlagError";
  } catch (const FlagError& error) {
    EXPECT_EQ(std::string(error.what()), "--flag takes no value");
  }
}

TEST(CliArgs, UnknownFlagThrows) {
  // A flag the caller did not declare is an error naming it, in every form:
  // a near miss, a bare switch, and a retired flag.
  for (const char* flag : {"--sigm=9", "--thread", "--kernel=scalar", "--auto-linearize"}) {
    const char* argv[] = {"prog", "deck.cir", flag};
    try {
      (void)CliArgs(3, argv, {"sigma", "threads"}, {"poles"});
      ADD_FAILURE() << "no FlagError for " << flag;
    } catch (const FlagError& error) {
      const std::string name = std::string(flag).substr(0, std::string(flag).find('='));
      EXPECT_EQ(std::string(error.what()), "unknown flag " + name);
    }
  }
}

TEST(CliArgs, ValueFlagWithMissingValueFallsBack) {
  const char* argv[] = {"prog", "--json"};
  const CliArgs args(2, argv, {"json"});
  EXPECT_TRUE(args.has("json"));
  EXPECT_EQ(args.get("json", "default.json"), "default.json");
}

TEST(CliArgs, ValueFlagDoesNotSwallowFollowingFlag) {
  // `--json --threads 8`: the forgotten path must not eat `--threads`.
  const char* argv[] = {"prog", "--json", "--threads", "8"};
  const CliArgs args(4, argv, {"json", "threads"});
  EXPECT_EQ(args.get("json"), "");
  EXPECT_EQ(args.get_int("threads", 1), 8);
}

TEST(CliArgs, RunMainTurnsFlagErrorIntoUsageExit) {
  // The body's own exit code passes through; a FlagError becomes exit 2 and
  // "error: <what>" on stderr.
  EXPECT_EQ(run_main([] { return 7; }), 7);
  const char* argv[] = {"prog", "--sigm=6"};
  testing::internal::CaptureStderr();
  const int code = run_main([&argv] { return CliArgs(2, argv, {"sigma"}).get_int("sigma", 6); });
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: unknown flag --sigm\n");
  EXPECT_EQ(code, 2);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const double lu = rng.log_uniform(1e-12, 1e-3);
    EXPECT_GE(lu, 1e-12 * 0.999);
    EXPECT_LE(lu, 1e-3 * 1.001);
    const auto idx = rng.uniform_index(7);
    EXPECT_LT(idx, 7u);
  }
}

TEST(Rng, SignIsBalanced) {
  Rng rng(9);
  int positive = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.sign() > 0) ++positive;
  }
  EXPECT_GT(positive, 4500);
  EXPECT_LT(positive, 5500);
}

TEST(Log, LevelFiltering) {
  std::ostringstream sink;
  set_log_stream(&sink);
  const LogLevel previous = log_level();
  set_log_level(LogLevel::Warn);
  SYMREF_INFO("hidden " << 1);
  SYMREF_WARN("visible " << 2);
  set_log_level(previous);
  set_log_stream(nullptr);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 2"), std::string::npos);
  EXPECT_NE(sink.str().find("[warn]"), std::string::npos);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  // Busy-wait a tiny amount; just verify monotonic non-negative behaviour.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
  const double before = timer.seconds();
  timer.reset();
  EXPECT_LE(timer.seconds(), before + 1.0);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace symref::support
