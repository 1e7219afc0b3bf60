// Dominator and postdominator trees: the graph-algorithms toolkit's
// (support/graph_algo.hpp) dominators over the CFG or its reverse.
//
// Postdominators drive switch placement (paper Section 4.1, Theorem 1);
// forward dominators drive SSA's dominance frontiers (cfg/ssa.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/graph.hpp"
#include "support/graph_algo.hpp"

namespace ctdf::cfg {

enum class DomDirection {
  kForward,   ///< dominators (root = start)
  kPostdom,   ///< postdominators (root = end, edges reversed)
};

class DomTree {
 public:
  DomTree(const Graph& g, DomDirection dir);

  [[nodiscard]] DomDirection direction() const { return dir_; }
  [[nodiscard]] NodeId root() const { return root_; }

  /// Immediate (post)dominator; invalid for the root.
  [[nodiscard]] NodeId idom(NodeId n) const { return algo_[n].idom; }

  /// Does `a` (post)dominate `b`? Reflexive.
  [[nodiscard]] bool dominates(NodeId a, NodeId b) const {
    return algo_.dominates(a, b);
  }

  /// Strict (post)domination.
  [[nodiscard]] bool strictly_dominates(NodeId a, NodeId b) const {
    return a != b && dominates(a, b);
  }

  /// Tree children of n, ascending.
  [[nodiscard]] std::span<const NodeId> children(NodeId n) const {
    return {child_ids_.data() + child_begin_[n.index()],
            child_ids_.data() + child_begin_[n.index() + 1]};
  }

  /// Tree nodes in a bottom-up order (every node before its parent).
  [[nodiscard]] const std::vector<NodeId>& bottom_up_order() const {
    return algo_.postorder;
  }

 private:
  DomDirection dir_;
  NodeId root_;
  support::GraphAlgo<NodeId> algo_;
  std::vector<std::uint32_t> child_begin_;  ///< per node, plus an end
  std::vector<NodeId> child_ids_;
};

}  // namespace ctdf::cfg
