// Recursive-descent parser for the ctdf source language.
//
// Grammar (EBNF; `//` and `#` start line comments):
//
//   program   := decl* stmt*
//   decl      := "var" ident ("," ident)* ";"
//              | "array" ident "[" INT "]" ("," ident "[" INT "]")* ";"
//              | "alias" ident ident ";"     // may-alias (Sec. 5, Def. 6)
//              | "bind"  ident ident ";"     // same storage at run time
//   stmt      := (ident ":")* core           // labels: top level only
//   core      := lvalue ":=" expr ";"
//              | "goto" ident ";"
//              | "if" expr "then" "goto" ident "else" "goto" ident ";"
//              | "if" expr "{" stmt* "}" ("else" "{" stmt* "}")?
//              | "while" expr "{" stmt* "}"
//              | "skip" ";"
//   lvalue    := ident | ident "[" expr "]"
//   expr      := precedence climbing over || && (==|!=|<|<=|>|>=) (+|-)
//                (*|/|%) with unary - and ! and parentheses
//
// Restrictions enforced here (documented in ast.hpp): labels and gotos
// may appear only in the top-level statement sequence; `end` is a
// predefined label denoting program exit; every goto target must
// resolve; all variables must be declared before use; array subscripts
// only on arrays, bare references only on scalars.
#pragma once

#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "lang/lexer.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::lang {

/// Parses `source`; reports problems to `diags`. Returns the (possibly
/// partial) program; callers should check `diags.has_errors()`.
[[nodiscard]] Program parse(std::string_view source,
                            support::DiagnosticEngine& diags);

/// Parses an already-lexed token stream, which must end in kEof.
/// Diagnostics carry the tokens' own source positions.
[[nodiscard]] Program parse(std::vector<Token> tokens,
                            support::DiagnosticEngine& diags);

/// Convenience wrapper: parses and throws support::CompileError on any
/// error.
[[nodiscard]] Program parse_or_throw(std::string_view source);

}  // namespace ctdf::lang
