#include "cfg/control_dep.hpp"

#include <utility>

#include "support/assert.hpp"

namespace ctdf::cfg {

ControlDeps::ControlDeps(const Graph& g, const DomTree& pdom)
    : num_nodes_(g.size()) {
  CTDF_ASSERT(pdom.direction() == DomDirection::kPostdom);
  // Every dependence of node `walk` on fork f with direction dir, in
  // ascending (f, dir) order. Run twice: once to count per node, once
  // to fill the table.
  const auto for_each_dep = [&](const auto& visit) {
    for (NodeId f : g.all_nodes()) {
      const Node& node = g.node(f);
      // Only nodes with two out-edges can carry control dependences; in
      // our graphs that is forks and (by the paper's convention) start.
      if (!node.succ_false.valid()) continue;
      const NodeId stop = pdom.idom(f);
      for (const bool dir : {true, false}) {
        NodeId walk = dir ? node.succ_true : node.succ_false;
        while (walk != stop) {
          visit(walk, ControlDep{f, dir});
          walk = pdom.idom(walk);
          CTDF_ASSERT_MSG(walk.valid(), "walk ran past the pdom root");
        }
      }
    }
  };
  dep_begin_.assign(g.size() + 1, 0);
  for_each_dep([&](NodeId n, ControlDep) { ++dep_begin_[n.index() + 1]; });
  for (std::size_t i = 1; i < dep_begin_.size(); ++i)
    dep_begin_[i] += dep_begin_[i - 1];
  deps_.resize(dep_begin_.back());
  std::vector<std::uint32_t> fill(dep_begin_.begin(), dep_begin_.end() - 1);
  for_each_dep([&](NodeId n, ControlDep d) { deps_[fill[n.index()]++] = d; });
}

void ControlDeps::iterate(std::span<const NodeId> ns, Scratch& s) const {
  // Worklist closure, as in the paper's Figure 10.
  if (s.seen.size() != num_nodes_) {
    s.seen = support::Bitset(num_nodes_);
    s.result = support::Bitset(num_nodes_);
  } else {
    s.seen.clear();
    s.result.clear();
  }
  s.worklist.clear();
  const auto push = [&](NodeId n) {
    if (!s.seen.test(n.index())) {
      s.seen.set(n.index());
      s.worklist.push_back(n);
    }
  };
  for (NodeId n : ns) push(n);

  while (!s.worklist.empty()) {
    const NodeId n = s.worklist.back();
    s.worklist.pop_back();
    for (const ControlDep& d : deps(n)) {
      s.result.set(d.fork.index());
      push(d.fork);
    }
  }
}

support::Bitset ControlDeps::iterated(NodeId n) const {
  return iterated(std::vector<NodeId>{n});
}

support::Bitset ControlDeps::iterated(const std::vector<NodeId>& ns) const {
  Scratch s;
  iterate(ns, s);
  return std::move(s.result);
}

}  // namespace ctdf::cfg
