// Status/Result plumbing and the exception -> StatusCode mapping.
#include "api/status.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mna/errors.h"
#include "netlist/parser.h"

namespace symref::api {
namespace {

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeMessageAndLocation) {
  const Status status =
      Status::error(StatusCode::kParseError, "bad card", SourceLocation{3, 7});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.message(), "bad card");
  EXPECT_EQ(status.location().line, 3);
  EXPECT_EQ(status.location().column, 7);
  EXPECT_EQ(status.to_string(), "parse_error: bad card (line 3, column 7)");
}

TEST(Status, CodeNamesAreStableTokens) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(status_code_name(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidSpec), "invalid_spec");
  EXPECT_STREQ(status_code_name(StatusCode::kSingularSystem), "singular_system");
  EXPECT_STREQ(status_code_name(StatusCode::kRefusedReplay), "refused_replay");
  EXPECT_STREQ(status_code_name(StatusCode::kIncomplete), "incomplete");
  EXPECT_STREQ(status_code_name(StatusCode::kIoError), "io_error");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "internal");
}

TEST(Result, ValueAndTake) {
  Result<std::string> result(std::string("payload"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "payload");
  EXPECT_EQ(result.take(), "payload");
}

TEST(Result, ErrorPropagatesStatus) {
  const Result<int> result(Status::error(StatusCode::kSingularSystem, "no pivot"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSingularSystem);
}

/// Throw `error`, map it through status_from_current_exception.
template <typename E>
Status map_exception(const E& error) {
  try {
    throw error;
  } catch (...) {
    return status_from_current_exception();
  }
}

TEST(StatusFromException, ParseErrorKeepsPosition) {
  const Status status = map_exception(netlist::ParseError(12, 5, "unknown card 'Z1'"));
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.location().line, 12);
  EXPECT_EQ(status.location().column, 5);
  EXPECT_NE(status.message().find("unknown card"), std::string::npos);
}

TEST(StatusFromException, DistinctCodesPerFailureClass) {
  EXPECT_EQ(map_exception(mna::SpecError("bad node")).code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(map_exception(mna::SingularSystemError("singular")).code(),
            StatusCode::kSingularSystem);
  EXPECT_EQ(map_exception(std::invalid_argument("bad arg")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(map_exception(std::runtime_error("boom")).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace symref::api
