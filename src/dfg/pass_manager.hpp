// The DFG optimization pass manager: one three-valued setting
// (OptLevel, `--opt=none|cleanup|all`), per-pass counters.
//
// Cleanup passes (kCleanup and kAll; run jointly to fixpoint in this
// order, then the graph is rebuilt without the dead nodes):
//
//  * fold-switch    — constant-predicate switch folding.
//  * collapse-merge — single-source merge collapsing. Never touches the
//                     replicate trees lower_fanout inserts (Node::
//                     replicate), which are single-source by design.
//  * const-fold     — algebraic identities through pure ops: x+0, x-0,
//                     x*1, x/1 bypass the operator; x*0 / x%1 rewrite
//                     to a Gate materializing the absorbing constant
//                     (the token must still be consumed).
//  * switch-elim    — a Switch whose two sides feed identical consumer
//                     multisets degrades to a Gate (the predicate token
//                     is still consumed, preserving any ordering edge
//                     riding it); a Gate whose trigger is literal, or
//                     whose value and trigger arrive from one source
//                     port, is a wire and is bypassed.
//  * synch-narrow   — Synch trees shrink: literal operands drop, a
//                     synch feeding only another synch merges into it,
//                     and a 1-input synch feeding only value-
//                     insensitive ports (triggers/access tokens) is
//                     bypassed.
//  * dce            — dead (output-unused) and unfireable (unwired
//                     input) node elimination.
//
// Fusion (kAll only; runs once, after cleanup):
//
//  * fuse           — collapses linear chains of single-consumer pure
//                     ops (BinOp/UnOp/Gate/Synch, every non-chain input
//                     literal) into kMacro nodes: one match, one token,
//                     N ALU steps. Chains are disjoint and each is fused
//                     whole, so no chain is preferred over another;
//                     chains longer than kFuseLimit split.
//
// Semantics preservation is proven by the schema-equivalence and fuzz
// differential sweeps, which run every level (tests/support/
// equivalence.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dfg/graph.hpp"

namespace ctdf::dfg {

/// The optimizer's one setting.
enum class OptLevel : std::uint8_t {
  kNone,     ///< no optimize stage (the default)
  kCleanup,  ///< the cleanup passes to fixpoint
  kAll,      ///< cleanup, then macro-op fusion
};

/// Maximum ops per fused macro; longer chains split into several.
inline constexpr std::size_t kFuseLimit = 8;

/// Per-pass optimizer statistics (the `optimize` stage's trace
/// counters and `--stats-json` keys).
struct OptStats {
  std::size_t switches_folded = 0;   ///< fold-switch rewrites
  std::size_t merges_collapsed = 0;  ///< collapse-merge rewrites
  std::size_t dead_removed = 0;      ///< dce: output-unused removals
  std::size_t unfireable_removed = 0;  ///< dce: unwired-input removals
  std::size_t consts_folded = 0;     ///< const-fold rewrites
  std::size_t switches_elim = 0;     ///< switch-elim rewrites
  std::size_t synchs_narrowed = 0;   ///< synch-narrow rewrites
  std::size_t iterations = 0;        ///< joint cleanup fixpoint rounds

  std::size_t nodes_removed = 0;     ///< total nodes removed from the graph

  std::size_t chains_fused = 0;      ///< macro nodes created
  std::size_t ops_fused = 0;         ///< tail ops absorbed into macros
  /// Fused-chain length histogram: index i = chains of length i + 2
  /// ops, so the last bucket holds the kFuseLimit-op chains.
  std::size_t fused_len_hist[kFuseLimit - 1] = {};
  /// Deepest natural-loop nesting of the pre-fusion graph.
  std::uint32_t max_loop_depth = 0;
};

/// Runs the passes `level` selects over `g` (cleanup to fixpoint, then
/// fusion at kAll) and rebuilds the graph without the removed nodes.
OptStats run_passes(Graph& g, OptLevel level);

}  // namespace ctdf::dfg
