#include "cfg/dominance.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace ctdf::cfg {

DomTree::DomTree(const Graph& g, DomDirection dir) : dir_(dir) {
  const bool forward = dir == DomDirection::kForward;
  root_ = forward ? g.start() : g.end();

  // Reverse postorder of the (possibly reversed) graph; CHK iterates to
  // a fixpoint over it.
  const std::vector<NodeId> rpo =
      forward ? g.reverse_postorder() : g.reverse_postorder_of_reverse();
  CTDF_ASSERT_MSG(rpo.size() == g.size(),
                  "graph must be connected (validate() first)");

  support::IndexMap<NodeId, std::uint32_t> rpo_index(g.size(), 0);
  for (std::size_t i = 0; i < rpo.size(); ++i)
    rpo_index[rpo[i]] = static_cast<std::uint32_t>(i);

  idom_.resize(g.size());
  idom_[root_] = root_;  // sentinel during iteration

  const auto intersect = [&](NodeId a, NodeId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom_[a];
      while (rpo_index[b] > rpo_index[a]) b = idom_[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId n : rpo) {
      if (n == root_) continue;
      NodeId new_idom = NodeId::invalid();
      const auto meet = [&](NodeId p) {
        if (!idom_[p].valid()) return;  // not yet processed
        new_idom = new_idom.valid() ? intersect(p, new_idom) : p;
      };
      // Predecessors in the (possibly reversed) graph, read in place.
      if (forward) {
        for (NodeId p : g.preds(n)) meet(p);
      } else {
        for (NodeId p : g.succs(n)) meet(p);
      }
      // The DFS-tree parent precedes n in RPO, so some predecessor is
      // always processed.
      CTDF_ASSERT_MSG(new_idom.valid(), "node with no processed predecessor");
      if (idom_[n] != new_idom) {
        idom_[n] = new_idom;
        changed = true;
      }
    }
  }
  idom_[root_] = NodeId::invalid();  // the root has no idom

  // Children lists, ascending per parent, in one table: child_begin_[n]
  // counts n's children, then becomes the offset of its first one.
  child_begin_.assign(g.size() + 1, 0);
  for (NodeId n : g.all_nodes())
    if (idom_[n].valid()) ++child_begin_[idom_[n].index() + 1];
  for (std::size_t i = 1; i < child_begin_.size(); ++i)
    child_begin_[i] += child_begin_[i - 1];
  child_ids_.resize(child_begin_.back());
  {
    std::vector<std::uint32_t> fill(child_begin_.begin(),
                                    child_begin_.end() - 1);
    for (NodeId n : g.all_nodes())
      if (idom_[n].valid()) child_ids_[fill[idom_[n].index()]++] = n;
  }

  // Euler tour for O(1) ancestor queries.
  tin_.resize(g.size(), 0);
  tout_.resize(g.size(), 0);
  bottom_up_.reserve(g.size());
  std::uint32_t clock = 0;
  struct Frame {
    NodeId node;
    std::size_t child = 0;
  };
  std::vector<Frame> stack;
  stack.reserve(g.size());
  stack.push_back({root_});
  tin_[root_] = clock++;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const std::span<const NodeId> kids = children(f.node);
    if (f.child < kids.size()) {
      const NodeId c = kids[f.child++];
      tin_[c] = clock++;
      stack.push_back({c});
    } else {
      tout_[f.node] = clock++;
      bottom_up_.push_back(f.node);
      stack.pop_back();
    }
  }
  CTDF_ASSERT_MSG(bottom_up_.size() == g.size(),
                  "dominator tree must span the graph");
}

}  // namespace ctdf::cfg
