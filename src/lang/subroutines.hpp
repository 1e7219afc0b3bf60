// FORTRAN-style subroutines with reference parameters, and the call-
// site alias analysis of the paper's Section 5.
//
// The paper's alias structures arise from reference-parameter passing:
//
//   SUBROUTINE F(X, Y, Z)      sub f(x, y, z) { ... }
//   CALL F(A, B, A)            call f(a, b, a);
//   CALL F(C, D, D)            call f(c, d, d);
//
// gives [X] = {X,Z}, [Y] = {Y,Z}, [Z] = {X,Y,Z}: X ~ Z because one
// call site passes the same actual to both, Y ~ Z because another does,
// and X !~ Y because no call site identifies them.
//
// This module implements subroutines by *expansion*: bodies are
// textually inlined at each call site with formals replaced by the
// actual argument names (actuals must be plain identifiers — that IS
// reference semantics under substitution), and exposes the Section 5
// analysis over the collected call sites so the alias structure the
// paper derives can be computed rather than hand-declared.
//
// Syntax (recognized before parsing; `sub` bodies may use structured
// statements and any global variables, but not labels/gotos):
//
//   sub name(p1, p2, ...) { ... }
//   call name(a1, a2, ...);
//
// Calls may appear inside other subroutine bodies (expansion is
// recursive); recursion is rejected with a depth check.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::lang {

struct SubroutineInfo {
  std::string name;
  std::vector<std::string> formals;
  /// Actual argument names, one vector per call site (in source order,
  /// including calls reached through other subroutine bodies).
  std::vector<std::vector<std::string>> call_sites;
};

struct ExpansionResult {
  std::string source;  ///< program text with all calls inlined
  std::vector<SubroutineInfo> subroutines;
};

/// Expands all `sub`/`call` constructs in `source`. On error (unknown
/// subroutine, arity mismatch, non-identifier actual, recursion) the
/// problems go to `diags` and the result is partial.
[[nodiscard]] ExpansionResult expand_subroutines(
    std::string_view source, support::DiagnosticEngine& diags);

/// Throwing convenience wrapper.
[[nodiscard]] ExpansionResult expand_subroutines_or_throw(
    std::string_view source);

/// Parses `source` with its `sub`/`call` constructs expanded, lexing it
/// once: a source without them goes straight to the parser, and one
/// with them is parsed from the expander's token stream. Diagnostics
/// point into `source`. Lexical and expansion errors stop before
/// parsing; callers check `diags.has_errors()`.
[[nodiscard]] Program parse_with_subroutines(std::string_view source,
                                             support::DiagnosticEngine& diags);

/// Section 5's analysis: formal-parameter index pairs (i < j) that may
/// alias — i.e. some call site passes the same actual (by name) to
/// both positions.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
formal_alias_pairs(const SubroutineInfo& sub);

/// Renders the alias pairs as `alias` declarations over the formals,
/// e.g. "alias x z;\nalias y z;\n" — the declarations a separate-
/// compilation frontend would hand to the Schema 3 translator.
[[nodiscard]] std::string render_alias_decls(const SubroutineInfo& sub);

}  // namespace ctdf::lang
