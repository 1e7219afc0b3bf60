// Lowering lang::Program to the statement-level CFG of Section 2.1.
//
// Every source label becomes a join node (joins are the only goto
// targets, per the paper); structured if/while statements lower to
// fork + join diamonds and cycles. A synthetic final join collects all
// program exits in front of `end`, and the conventional start→end edge
// is added (start's false out-direction), making start a fork.
//
// Unreachable statements (e.g. code after an unconditional goto with no
// label) are pruned. A reachable cycle with no path to `end` (a true
// infinite loop) violates the paper's every-node-on-a-start-to-end-path
// assumption and is reported as an error.
#pragma once

#include "cfg/graph.hpp"
#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::cfg {

/// Lowers `prog` to a CFG. On malformed flow (infinite loop with no
/// exit) reports to `diags` and returns the partial graph.
///
/// Lifetime: assign and fork nodes point into `prog`'s statements
/// (their lvalues and expressions) instead of copying them, so `prog`
/// must outlive the returned graph and every graph derived from it
/// (loop transformation, node splitting and pruning copy the
/// pointers). Moving the Program is fine: its statements live on the
/// heap. The rvalue overloads are deleted so a temporary program
/// cannot be passed.
[[nodiscard]] Graph build_cfg(const lang::Program& prog,
                              support::DiagnosticEngine& diags);
Graph build_cfg(lang::Program&& prog, support::DiagnosticEngine& diags) = delete;

/// Convenience wrapper that throws support::CompileError on any error.
/// Same lifetime contract as build_cfg.
[[nodiscard]] Graph build_cfg_or_throw(const lang::Program& prog);
Graph build_cfg_or_throw(lang::Program&& prog) = delete;

}  // namespace ctdf::cfg
