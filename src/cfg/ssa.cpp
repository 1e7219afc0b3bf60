#include "cfg/ssa.hpp"

#include <algorithm>

#include "cfg/dataflow.hpp"
#include "support/assert.hpp"

namespace ctdf::cfg {

DominanceFrontiers::DominanceFrontiers(const Graph& g, const DomTree& dom)
    : num_nodes_(g.size()) {
  CTDF_ASSERT(dom.direction() == DomDirection::kForward);
  df_.resize(g.size());
  // Cooper-Harvey-Kennedy: for each join point, walk up from each
  // predecessor to the join's idom, adding the join to every frontier
  // on the way.
  for (NodeId n : g.all_nodes()) {
    const auto& preds = g.preds(n);
    if (preds.size() < 2) continue;
    for (NodeId p : preds) {
      NodeId runner = p;
      while (runner != dom.idom(n)) {
        auto& df = df_[runner];
        if (std::find(df.begin(), df.end(), n) == df.end()) df.push_back(n);
        runner = dom.idom(runner);
        CTDF_ASSERT_MSG(runner.valid(), "runner escaped the dominator tree");
      }
    }
  }
}

std::vector<NodeId> DominanceFrontiers::iterated(
    const std::vector<NodeId>& nodes) const {
  support::Bitset in_result(num_nodes_);
  support::Bitset visited(num_nodes_);
  std::vector<NodeId> work;
  for (NodeId n : nodes) {
    if (!visited.test(n.index())) {
      visited.set(n.index());
      work.push_back(n);
    }
  }
  while (!work.empty()) {
    const NodeId n = work.back();
    work.pop_back();
    for (NodeId m : df_[n]) {
      if (in_result.test(m.index())) continue;
      in_result.set(m.index());
      if (!visited.test(m.index())) {
        visited.set(m.index());
        work.push_back(m);
      }
    }
  }
  std::vector<NodeId> out;
  in_result.for_each([&](std::size_t i) { out.emplace_back(i); });
  return out;
}

PhiPlacement place_phis(const Graph& g, const lang::SymbolTable& syms,
                        bool pruned) {
  const DomTree dom(g, DomDirection::kForward);
  const DominanceFrontiers df(g, dom);
  const Liveness live(g, syms);

  PhiPlacement out;
  out.phis.resize(g.size());
  for (lang::VarId v : syms.all_vars()) {
    std::vector<NodeId> defs{g.start()};  // the initial value
    for (NodeId n : g.all_nodes()) {
      const Node& node = g.node(n);
      if (node.kind == NodeKind::kAssign && node.lhs->var == v)
        defs.push_back(n);
    }
    if (defs.size() < 2) continue;  // never assigned: no joins needed
    for (NodeId site : df.iterated(defs)) {
      if (pruned && !live.live_in(site).test(v.index())) continue;
      out.phis[site].push_back(v);
      ++out.total;
    }
  }
  return out;
}

}  // namespace ctdf::cfg
