// Arithmetic parameter expression evaluator ({...} netlist values).
#include "netlist/expression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

namespace symref::netlist {
namespace {

/// Map-backed environment for the tests.
class MapEnv final : public ParamEnv {
 public:
  explicit MapEnv(std::map<std::string, double, std::less<>> values)
      : values_(std::move(values)) {}
  [[nodiscard]] const double* find(std::string_view name) const override {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, double, std::less<>> values_;
};

double eval(std::string_view text,
            std::map<std::string, double, std::less<>> values = {}) {
  return evaluate_expression(text, MapEnv(std::move(values)));
}

TEST(Expression, LiteralsAndEngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(eval("42"), 42.0);
  EXPECT_DOUBLE_EQ(eval("2.2k"), 2200.0);
  EXPECT_DOUBLE_EQ(eval("30p"), 30e-12);
  EXPECT_DOUBLE_EQ(eval("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(eval("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(eval("2e+3"), 2e3);
}

TEST(Expression, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(eval("-3 + 5"), 2.0);
  EXPECT_DOUBLE_EQ(eval("--4"), 4.0);
  EXPECT_DOUBLE_EQ(eval("2 ^ 10"), 1024.0);
  EXPECT_DOUBLE_EQ(eval("2 ^ 3 ^ 2"), 512.0);  // right-associative
  EXPECT_DOUBLE_EQ(eval("1k + 1meg / 1k"), 2000.0);
}

TEST(Expression, Parameters) {
  EXPECT_DOUBLE_EQ(eval("r * 2", {{"r", 1e3}}), 2e3);
  EXPECT_DOUBLE_EQ(eval("RC", {{"rc", 5.0}}), 5.0);  // lowercased lookup
}

TEST(Expression, Functions) {
  EXPECT_DOUBLE_EQ(eval("sqrt(16)"), 4.0);
  EXPECT_DOUBLE_EQ(eval("abs(-3)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("min(2, 3)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("max(2, 3)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("pow(2, 8)"), 256.0);
  EXPECT_DOUBLE_EQ(eval("exp(0)"), 1.0);
  EXPECT_DOUBLE_EQ(eval("ln(exp(1))"), 1.0);
  EXPECT_DOUBLE_EQ(eval("log(1000)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("log10(100)"), 2.0);
}

TEST(Expression, HyperbolicFunctions) {
  EXPECT_DOUBLE_EQ(eval("tanh(0)"), 0.0);
  EXPECT_DOUBLE_EQ(eval("tanh(1)"), std::tanh(1.0));
  EXPECT_DOUBLE_EQ(eval("sinh(0)"), 0.0);
  EXPECT_DOUBLE_EQ(eval("cosh(0)"), 1.0);
  // cosh^2 - sinh^2 == 1, evaluated inside the expression language itself.
  EXPECT_NEAR(eval("cosh(0.5)^2 - sinh(0.5)^2"), 1.0, 1e-12);
  // Device-style usage: thermal-voltage limiter around a .param value.
  EXPECT_DOUBLE_EQ(eval("vt * tanh(vd / vt)", {{"vt", 0.02585}, {"vd", 1.0}}),
                   0.02585 * std::tanh(1.0 / 0.02585));
}

TEST(Expression, HyperbolicErrorsCarryOffsets) {
  // Overflow in sinh/cosh is a positioned evaluation error, not an inf/nan
  // that silently poisons a component value downstream.
  try {
    eval("1 + sinh(1000)");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 4u);  // the 's' of sinh
    EXPECT_NE(std::string(e.what()).find("'sinh' produced a non-finite value"),
              std::string::npos);
  }
  try {
    eval("2 * cosh(1000)");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("'cosh' produced a non-finite value"),
              std::string::npos);
  }
  // Arity errors point at the call, with the usual one-argument message.
  try {
    eval("tanh(1, 2)");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("'tanh' expects 1 argument"),
              std::string::npos);
  }
  EXPECT_THROW(eval("sinh()"), ExprError);
  EXPECT_THROW(eval("cosh(1, 2)"), ExprError);
}

TEST(Expression, ErrorsCarryOffsets) {
  try {
    eval("1 + bogus_name");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("undefined parameter 'bogus_name'"),
              std::string::npos);
  }
  try {
    eval("3 / 0");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 2u);  // the '/'
    EXPECT_NE(std::string(e.what()).find("division by zero"), std::string::npos);
  }
}

TEST(Expression, SyntaxErrorsRejected) {
  EXPECT_THROW(eval(""), ExprError);
  EXPECT_THROW(eval("1 +"), ExprError);
  EXPECT_THROW(eval("(1"), ExprError);
  EXPECT_THROW(eval("1 2"), ExprError);
  EXPECT_THROW(eval("1 & 2"), ExprError);
  EXPECT_THROW(eval("zzz(1)"), ExprError);
  EXPECT_THROW(eval("min(1)"), ExprError);
  EXPECT_THROW(eval("sqrt(1, 2)"), ExprError);
}

TEST(Expression, DomainAndOverflowErrorsRejected) {
  EXPECT_THROW(eval("sqrt(-1)"), ExprError);
  EXPECT_THROW(eval("ln(0)"), ExprError);
  EXPECT_THROW(eval("log(-5)"), ExprError);
  EXPECT_THROW(eval("10 ^ 400"), ExprError);      // non-finite power
  EXPECT_THROW(eval("1e308 * 1e308"), ExprError);  // non-finite result
}

TEST(Expression, DeepNestingFailsTypedInsteadOfOverflowingTheStack) {
  constexpr std::size_t kDepth = 100000;
  try {
    eval(std::string(kDepth, '(') + "1k" + std::string(kDepth, ')'));
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.offset(), 128u);  // the first '(' past the nesting limit
    EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos);
  }
  EXPECT_THROW(eval(std::string(kDepth, '-') + "1"), ExprError);
  EXPECT_DOUBLE_EQ(eval(std::string(100, '(') + "2" + std::string(100, ')')), 2.0);
}

}  // namespace
}  // namespace symref::netlist
