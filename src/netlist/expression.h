// Arithmetic parameter expressions for `{...}` netlist values.
//
// The dialect's `.param` cards and brace expressions need a small,
// dependency-free evaluator:
//
//   expr    := term (('+'|'-') term)*
//   term    := unary (('*'|'/') unary)*
//   unary   := ('+'|'-')* power
//   power   := primary ('^' unary)?            (right-associative)
//   primary := number | name | name '(' args ')' | '(' expr ')'
//
// Numbers use the same engineering notation as element values ("30p",
// "2.2k", "1meg", "1e-9"); names are parameters resolved through the
// caller's scope chain (case-insensitive, like the rest of the dialect).
// Functions: sqrt, abs, exp, tanh, sinh, cosh, ln, log/log10, min(a,b),
// max(a,b), pow(a,b).
//
// Failures (syntax, undefined parameter, division by zero, domain errors,
// non-finite results, nesting deeper than 128 levels) throw ExprError
// carrying the 0-based character offset of the offending construct, which
// the parser converts into an exact line/column ParseError — diagnostics
// point INTO the expression, not just at the card.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace symref::netlist {

/// Parameter resolution callback of the evaluator. Implementations return a
/// pointer to the value of `name` (already lowercased) or nullptr when the
/// parameter is not defined in any visible scope.
class ParamEnv {
 public:
  virtual ~ParamEnv() = default;
  [[nodiscard]] virtual const double* find(std::string_view name) const = 0;
};

/// Evaluation failure at a specific character of the expression text.
class ExprError : public std::runtime_error {
 public:
  ExprError(std::size_t offset, const std::string& message)
      : std::runtime_error(message), offset_(offset) {}
  /// 0-based offset into the expression text handed to evaluate_expression.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Evaluate `text` (the content between the braces, braces excluded)
/// against `env`. Throws ExprError on any failure; otherwise the result is
/// guaranteed finite.
[[nodiscard]] double evaluate_expression(std::string_view text, const ParamEnv& env);

}  // namespace symref::netlist
