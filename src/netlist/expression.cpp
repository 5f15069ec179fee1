#include "netlist/expression.h"

#include <cctype>
#include <cmath>
#include <string>

#include "numeric/units.h"

namespace symref::netlist {

namespace {

bool is_ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Recursive-descent evaluator over the expression text. Positions are byte
/// offsets into `text_`, reported through ExprError.
class Evaluator {
 public:
  Evaluator(std::string_view text, const ParamEnv& env) : text_(text), env_(env) {}

  double run() {
    const double value = expr();
    skip_spaces();
    if (at_ < text_.size()) {
      throw ExprError(at_, std::string("unexpected '") + text_[at_] + "' in expression");
    }
    if (!std::isfinite(value)) {
      throw ExprError(0, "expression result is not finite");
    }
    return value;
  }

 private:
  void skip_spaces() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_])) != 0) {
      ++at_;
    }
  }

  bool consume(char c) {
    skip_spaces();
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  [[nodiscard]] char peek() {
    skip_spaces();
    return at_ < text_.size() ? text_[at_] : '\0';
  }

  double expr() {
    double value = term();
    for (;;) {
      if (consume('+')) {
        value += term();
      } else if (consume('-')) {
        value -= term();
      } else {
        return value;
      }
    }
  }

  double term() {
    double value = unary();
    for (;;) {
      if (consume('*')) {
        value *= unary();
      } else if (peek() == '/') {
        const std::size_t slash = at_;
        ++at_;
        const double divisor = unary();
        if (divisor == 0.0) {
          throw ExprError(slash, "division by zero in parameter expression");
        }
        value /= divisor;
      } else {
        return value;
      }
    }
  }

  double unary() {
    // Every nested construct (parentheses, function arguments, unary signs,
    // '^' exponents) recurses through here, so this one bound keeps a
    // hostile expression from overflowing the stack.
    skip_spaces();
    if (++depth_ > kMaxDepth) {
      throw ExprError(at_, "expression nested deeper than " + std::to_string(kMaxDepth) +
                               " levels");
    }
    const double value = consume('-') ? -unary() : consume('+') ? unary() : power();
    --depth_;
    return value;
  }

  double power() {
    const double base = primary();
    if (peek() == '^') {
      const std::size_t caret = at_;
      ++at_;
      const double exponent = unary();  // right-associative
      const double value = std::pow(base, exponent);
      if (!std::isfinite(value)) {
        throw ExprError(caret, "'^' produced a non-finite value");
      }
      return value;
    }
    return base;
  }

  double primary() {
    skip_spaces();
    if (at_ >= text_.size()) {
      throw ExprError(text_.size(), "expression ends where a value was expected");
    }
    const char c = text_[at_];
    if (c == '(') {
      const std::size_t open = at_;
      ++at_;
      const double value = expr();
      if (!consume(')')) {
        throw ExprError(open, "unmatched '(' in expression");
      }
      return value;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') return number();
    if (is_ident_start(c)) return name_or_call();
    throw ExprError(at_, std::string("unexpected '") + c + "' in expression");
  }

  /// Engineering-notation number: digits/dot, then any alphanumeric suffix
  /// ("30p", "1meg", "2e-3" — a sign is part of the token only directly
  /// after an exponent 'e'/'E').
  double number() {
    const std::size_t start = at_;
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.') {
        ++at_;
        continue;
      }
      if ((c == '+' || c == '-') && at_ > start) {
        const char prev = text_[at_ - 1];
        if ((prev == 'e' || prev == 'E') && at_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[at_ + 1])) != 0) {
          ++at_;
          continue;
        }
      }
      break;
    }
    const std::string_view token = text_.substr(start, at_ - start);
    const auto value = numeric::parse_engineering(token);
    if (!value) {
      throw ExprError(start, "bad numeric value '" + std::string(token) + "'");
    }
    return *value;
  }

  double name_or_call() {
    const std::size_t start = at_;
    while (at_ < text_.size() && is_ident_char(text_[at_])) ++at_;
    std::string name(text_.substr(start, at_ - start));
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

    if (peek() == '(') return call(name, start);

    const double* value = env_.find(name);
    if (value == nullptr) {
      throw ExprError(start, "undefined parameter '" + name + "'");
    }
    return *value;
  }

  double call(const std::string& name, std::size_t start) {
    consume('(');
    double args[2] = {0.0, 0.0};
    int count = 0;
    if (peek() != ')') {
      for (;;) {
        if (count >= 2) throw ExprError(start, "'" + name + "': too many arguments");
        args[count++] = expr();
        if (consume(',')) continue;
        break;
      }
    }
    if (!consume(')')) throw ExprError(start, "'" + name + "': missing ')'");

    auto want = [&](int n) {
      if (count != n) {
        throw ExprError(start, "'" + name + "' expects " + std::to_string(n) +
                                   " argument" + (n == 1 ? "" : "s"));
      }
    };
    double value = 0.0;
    if (name == "sqrt") {
      want(1);
      if (args[0] < 0.0) throw ExprError(start, "sqrt of a negative value");
      value = std::sqrt(args[0]);
    } else if (name == "abs") {
      want(1);
      value = std::fabs(args[0]);
    } else if (name == "exp") {
      want(1);
      value = std::exp(args[0]);
    } else if (name == "tanh") {
      want(1);
      value = std::tanh(args[0]);
    } else if (name == "sinh") {
      want(1);
      value = std::sinh(args[0]);
    } else if (name == "cosh") {
      want(1);
      value = std::cosh(args[0]);
    } else if (name == "ln") {
      want(1);
      if (args[0] <= 0.0) throw ExprError(start, "ln of a non-positive value");
      value = std::log(args[0]);
    } else if (name == "log" || name == "log10") {
      want(1);
      if (args[0] <= 0.0) throw ExprError(start, "log of a non-positive value");
      value = std::log10(args[0]);
    } else if (name == "min") {
      want(2);
      value = args[0] < args[1] ? args[0] : args[1];
    } else if (name == "max") {
      want(2);
      value = args[0] > args[1] ? args[0] : args[1];
    } else if (name == "pow") {
      want(2);
      value = std::pow(args[0], args[1]);
    } else {
      throw ExprError(start, "unknown function '" + name + "'");
    }
    if (!std::isfinite(value)) {
      throw ExprError(start, "'" + name + "' produced a non-finite value");
    }
    return value;
  }

  /// Nesting limit of unary(), as in Json::parse.
  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  const ParamEnv& env_;
  std::size_t at_ = 0;
  int depth_ = 0;
};

}  // namespace

double evaluate_expression(std::string_view text, const ParamEnv& env) {
  return Evaluator(text, env).run();
}

}  // namespace symref::netlist
