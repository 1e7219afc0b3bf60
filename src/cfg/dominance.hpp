// Dominator and postdominator trees (Cooper–Harvey–Kennedy iterative
// algorithm).
//
// Postdominators drive switch placement (paper Section 4.1, Theorem 1);
// forward dominators drive back-edge detection for the interval /
// loop-control transformation (Section 3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/graph.hpp"
#include "support/index_map.hpp"

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
  [[nodiscard]] NodeId idom(NodeId n) const { return idom_[n]; }

  /// Does `a` (post)dominate `b`? Reflexive.
  [[nodiscard]] bool dominates(NodeId a, NodeId b) const {
    return tin_[a] <= tin_[b] && tout_[b] <= tout_[a];
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
    return bottom_up_;
  }

 private:
  DomDirection dir_;
  NodeId root_;
  support::IndexMap<NodeId, NodeId> idom_;
  std::vector<std::uint32_t> child_begin_;  ///< per node, plus an end
  std::vector<NodeId> child_ids_;
  support::IndexMap<NodeId, std::uint32_t> tin_, tout_;
  std::vector<NodeId> bottom_up_;
};

}  // namespace ctdf::cfg
