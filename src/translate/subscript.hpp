// Subscript analysis for array-store parallelization (paper Section
// 6.3, which defers to standard disambiguation techniques [16]).
//
// We recognize affine subscripts `c*i + d` (c, d integer constants,
// c ≠ 0) in a *simple induction variable* i of the enclosing loop: an
// unaliased scalar assigned exactly once inside the loop, as
// i := i ± step with a non-zero constant step. Two different iterations
// then compute subscripts that differ by c·step ≠ 0, so the stores are
// independent and Fig. 14's token-duplication transform applies.
//
// Caveat (documented contract of the transform): subscripts wrap modulo
// the array extent at run time, so iterations more than extent/(c·step)
// apart can still collide; the transform is applied only to arrays the
// user nominates (TranslateOptions::parallel_store_arrays), with this
// analysis as the safety net — exactly the paper's division of labor
// between dependence analysis and program knowledge.
#pragma once

#include <optional>
#include <span>

#include "cfg/graph.hpp"
#include "lang/ast.hpp"

namespace ctdf::translate {

/// An affine form c·var + d.
struct Affine {
  lang::VarId var;
  std::int64_t coeff = 0;
  std::int64_t offset = 0;
};

/// Matches `expr` against c·v + d (commuted/nested +,-,* with constant
/// leaves; unary minus supported). Returns nullopt for anything else,
/// including c == 0 and expressions referencing more than one variable.
[[nodiscard]] std::optional<Affine> match_affine(const lang::Expr& expr);

/// Is `v` a simple induction variable of the loop whose nodes are
/// `loop` (cfg::LoopInfo::nodes): unaliased scalar, assigned exactly
/// once among them, in the form v := v ± step (constant step ≠ 0)?
/// Returns the signed step.
[[nodiscard]] std::optional<std::int64_t> induction_step(
    const cfg::Graph& g, std::span<const cfg::NodeId> loop, lang::VarId v,
    const lang::SymbolTable& syms);

/// Full Fig. 14 qualification: inside the loop whose nodes are `loop`,
/// array `a` is only ever stored to (never read by any node's rhs,
/// subscript, or predicate), and every store's subscript is affine in a
/// simple induction variable of the loop.
[[nodiscard]] bool stores_parallelizable(const cfg::Graph& g,
                                         std::span<const cfg::NodeId> loop,
                                         lang::VarId a,
                                         const lang::SymbolTable& syms);

}  // namespace ctdf::translate
