// Sources nested deeper than any real program, one generator per kind
// of depth the parser bounds (lang/parser.cpp): parentheses, a flat
// operator chain, unary operators, and nested `while` / `if` blocks.
// No source contains a quote, backslash or newline, so each can be
// pasted into a JSON string as is.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ctdf::testing {

inline std::string repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `x := ((…1…));` inside `n` parentheses.
inline std::string nested_parens(int n) {
  return "var x; x := " + repeat("(", n) + "1" + repeat(")", n) + ";";
}

/// `x := 1+1+…+1;` with `ops` operators: a left-deep tree `ops` tall.
inline std::string flat_sum(int ops) {
  return "var x; x := 1" + repeat("+1", ops) + ";";
}

/// `x := - - … - 1;` with `n` unary minuses.
inline std::string unary_minuses(int n) {
  return "var x; x := " + repeat("- ", n) + "1;";
}

/// `n` nested `<keyword> x < 1 { … }` blocks around `x := 1;`.
inline std::string nested_blocks(std::string_view keyword, int n) {
  const std::string head = std::string(keyword) + " x < 1 { ";
  return "var x; " + repeat(head, n) + "x := 1; " + repeat("} ", n);
}

struct DeepSource {
  std::string name;
  std::string source;
};

/// Five sources that overflowed the stack of `ctdf run` and `ctdf serve`
/// before the parser bounded its depth.
inline std::vector<DeepSource> stack_overflow_reproducers() {
  return {{"parens-30000", nested_parens(30000)},
          {"sum-200000", flat_sum(199999)},
          {"minus-200000", unary_minuses(200000)},
          {"while-30000", nested_blocks("while", 30000)},
          {"if-30000", nested_blocks("if", 30000)}};
}

}  // namespace ctdf::testing
