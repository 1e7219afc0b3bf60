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
#include <vector>

#include "cfg/graph.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::cfg {

struct Loop {
  LoopId id;
  NodeId header;
  LoopId parent;               ///< invalid for top-level loops
  int depth = 0;               ///< 0 for top-level loops
  NodeId entry;                ///< the inserted loop-entry node
  std::vector<NodeId> exits;   ///< the inserted loop-exit nodes
  /// Nodes of the cyclic region (header, bodies, inner loop nodes, and
  /// the loop-entry node itself; exit nodes belong to the parent),
  /// ascending.
  std::vector<NodeId> members;
};

class LoopInfo {
 public:
  [[nodiscard]] const std::vector<Loop>& loops() const { return loops_; }
  [[nodiscard]] const Loop& loop(LoopId l) const { return loops_[l.index()]; }

  [[nodiscard]] bool in_loop(NodeId n, LoopId l) const;

  /// The loop whose entry/exit node this is (invalid otherwise).
  [[nodiscard]] LoopId loop_of_control_node(const Graph& g, NodeId n) const;

  /// True iff edge from→to is a loop back edge in the transformed graph
  /// (to is a loop-entry node and from is a member of its loop).
  [[nodiscard]] bool is_back_edge(NodeId from, NodeId to) const;

  /// Variables referenced by any assignment/fork member of loop l.
  [[nodiscard]] std::vector<lang::VarId> used_vars(const Graph& g,
                                                   LoopId l) const;

  /// Number of nodes duplicated to reach reducibility.
  [[nodiscard]] int nodes_split() const { return nodes_split_; }

 private:
  friend LoopInfo transform_loops(Graph& g,
                                  support::DiagnosticEngine& diags);

  std::vector<Loop> loops_;
  int nodes_split_ = 0;
};

/// Applies the full Section 3 transformation to `g` in place:
/// node splitting to reducibility, then loop entry/exit insertion,
/// innermost loops first. Reports pathological graphs (split budget
/// exceeded) to `diags`.
[[nodiscard]] LoopInfo transform_loops(Graph& g,
                                       support::DiagnosticEngine& diags);

}  // namespace ctdf::cfg
