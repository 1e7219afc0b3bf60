// Interval decomposition and the loop-control transformation
// (paper Section 3).
//
// The paper decomposes the CFG hierarchically into nested single-entry
// intervals and inserts two pseudo-statements per cyclic interval:
//
//  * a *loop entry* node through which every edge into the header —
//    from outside the interval AND every back edge from within — is
//    rerouted, and
//  * a *loop exit* node on every edge A→B where A can reach the header
//    inside the interval but B cannot.
//
// For reducible graphs the nested cyclic intervals are exactly the
// natural loops (merged per header). Irreducible graphs are first made
// reducible by node splitting ("code copying", which the paper notes
// makes the decomposition universal): in every multiple-entry strongly
// connected region, all non-header entry nodes are duplicated until
// each cyclic region is single-entry.
//
// The transformation mutates the graph in place and returns a LoopInfo
// describing the final loop forest, entry/exit nodes, and back edges —
// everything the translator needs to wire per-iteration contexts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/graph.hpp"
#include "support/diagnostics.hpp"
#include "support/index_map.hpp"

namespace ctdf::cfg {

struct Loop {
  LoopId id;
  NodeId header;
  LoopId parent;               ///< invalid for top-level loops
  int depth = 0;               ///< 0 for top-level loops
  NodeId entry;                ///< the inserted loop-entry node
  std::vector<NodeId> exits;   ///< the inserted loop-exit nodes
};

/// The loop forest of a transformed CFG. Membership is not stored per
/// loop: a loop holds the nodes of its cyclic region (header, body,
/// nested loops, its own loop-entry node, and the exit nodes of nested
/// loops, but not its own exits), each node records the innermost loop
/// holding it, and loops are numbered in loop-tree preorder, so
/// containment is two comparisons.
class LoopInfo {
 public:
  [[nodiscard]] const std::vector<Loop>& loops() const { return loops_; }
  [[nodiscard]] const Loop& loop(LoopId l) const { return loops_[l.index()]; }

  /// Loops in loop-tree preorder: each before the loops nested in it.
  [[nodiscard]] const std::vector<LoopId>& preorder() const {
    return preorder_;
  }

  /// The innermost loop holding n; invalid outside every loop.
  [[nodiscard]] LoopId innermost(NodeId n) const {
    return innermost_.contains(n) ? innermost_[n] : LoopId::invalid();
  }

  [[nodiscard]] bool in_loop(NodeId n, LoopId l) const {
    const LoopId m = innermost(n);
    if (!m.valid()) return false;
    const std::uint32_t p = pre_[m.index()];
    return pre_[l.index()] <= p && p <= last_[l.index()];
  }

  /// True iff edge from→to is a loop back edge in the transformed graph
  /// (to is a loop-entry node and from is in its loop).
  [[nodiscard]] bool is_back_edge(NodeId from, NodeId to) const {
    const LoopId l = innermost(to);
    return l.valid() && loops_[l.index()].entry == to && in_loop(from, l);
  }

  /// The nodes whose innermost loop is l, ascending.
  [[nodiscard]] std::span<const NodeId> body(LoopId l) const {
    const std::uint32_t p = pre_[l.index()];
    return {nodes_.data() + nodes_begin_[p],
            nodes_.data() + nodes_begin_[p + 1]};
  }

  /// Every node in l: its body, then the bodies of the loops nested in
  /// it, in loop-tree preorder.
  [[nodiscard]] std::span<const NodeId> nodes(LoopId l) const {
    return {nodes_.data() + nodes_begin_[pre_[l.index()]],
            nodes_.data() + nodes_begin_[last_[l.index()] + 1]};
  }

  /// Per loop (by LoopId index): the variables referenced by any
  /// assignment or fork in it, ascending.
  [[nodiscard]] std::vector<std::vector<lang::VarId>> used_vars(
      const Graph& g) const;

  /// Number of nodes duplicated to reach reducibility.
  [[nodiscard]] int nodes_split() const { return nodes_split_; }

 private:
  friend LoopInfo transform_loops(Graph& g,
                                  support::DiagnosticEngine& diags);

  /// Fills nodes_ from innermost_.
  void group_nodes();

  std::vector<Loop> loops_;
  std::vector<LoopId> preorder_;
  std::vector<std::uint32_t> pre_;   ///< per loop: its preorder position
  std::vector<std::uint32_t> last_;  ///< per loop: last position inside it
  support::IndexMap<NodeId, LoopId> innermost_;
  /// Nodes inside some loop, grouped by innermost loop in preorder
  /// position; group p starts at nodes_begin_[p] (plus an end).
  std::vector<NodeId> nodes_;
  std::vector<std::uint32_t> nodes_begin_;
  int nodes_split_ = 0;
};

/// Applies the full Section 3 transformation to `g` in place: node
/// splitting when the graph is irreducible, then loop entry/exit
/// insertion, innermost loops first (by depth, then by id), each loop's
/// exit edges by ascending source, true before false. Reports
/// pathological graphs (split budget exceeded) to `diags`.
[[nodiscard]] LoopInfo transform_loops(Graph& g,
                                       support::DiagnosticEngine& diags);

}  // namespace ctdf::cfg
