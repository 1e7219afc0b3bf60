// The DFG optimization pass manager: an ordered, individually
// toggleable pass list run to fixpoint, with per-pass counters
// replacing the old single "post_opt_removed" lump.
//
// Cleanup passes (iterated jointly to fixpoint, then the graph is
// compacted):
//
//  * fold-switch    — constant-predicate switch folding.
//  * collapse-merge — single-source merge collapsing. Never touches the
//                     replicate trees lower_fanout inserts (Node::
//                     replicate), which are single-source by design.
//  * dce            — dead (output-unused) and unfireable (unwired
//                     input) node elimination.
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
//
// Fusion (runs once, after cleanup):
//
//  * fuse           — collapses linear chains of single-consumer pure
//                     ops (BinOp/UnOp/Gate/Synch, every non-chain input
//                     literal) into kMacro nodes: one match, one token,
//                     N ALU steps. Chains are disjoint and each is fused
//                     whole, so no chain is preferred over another;
//                     chains longer than fuse_limit split.
//
// Semantics preservation is proven by the schema-equivalence and fuzz
// differential sweeps with every pass enabled (tests/support/
// equivalence.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "dfg/graph.hpp"

namespace ctdf::dfg {

enum class PassId : std::uint8_t {
  kFoldSwitch,
  kCollapseMerge,
  kDce,
  kConstFold,
  kSwitchElim,
  kSynchNarrow,
  kFuse,
};

inline constexpr std::size_t kNumPasses = 7;

[[nodiscard]] const char* to_string(PassId p);
[[nodiscard]] std::optional<PassId> pass_from_name(std::string_view name);

/// An enabled-pass set (bitmask over PassId).
struct PassSet {
  std::uint8_t bits = 0;

  [[nodiscard]] static PassSet none() { return {}; }
  /// Every pass, fusion included (`--opt=all`).
  [[nodiscard]] static PassSet all() {
    return PassSet{static_cast<std::uint8_t>((1u << kNumPasses) - 1)};
  }
  /// Every cleanup pass, no fusion (`--post-opt`'s meaning).
  [[nodiscard]] static PassSet cleanup() {
    PassSet s = all();
    s.disable(PassId::kFuse);
    return s;
  }

  [[nodiscard]] bool enabled(PassId p) const {
    return bits & (1u << static_cast<std::uint8_t>(p));
  }
  void enable(PassId p) { bits |= (1u << static_cast<std::uint8_t>(p)); }
  void disable(PassId p) {
    bits &= static_cast<std::uint8_t>(~(1u << static_cast<std::uint8_t>(p)));
  }
  [[nodiscard]] bool any() const { return bits != 0; }

  friend bool operator==(const PassSet&, const PassSet&) = default;
};

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
  /// ops, last bucket = 8 ops or longer.
  std::size_t fused_len_hist[7] = {};
  /// Deepest natural-loop nesting of the pre-fusion graph.
  std::uint32_t max_loop_depth = 0;
};

inline constexpr std::size_t kDefaultFuseLimit = 8;

/// Runs the enabled passes over `g` (cleanup to fixpoint, then fusion)
/// and compacts the graph. `fuse_limit` caps ops per macro (≥ 2).
OptStats run_passes(Graph& g, PassSet passes,
                    std::size_t fuse_limit = kDefaultFuseLimit);

}  // namespace ctdf::dfg
