#include "cfg/dataflow.hpp"

#include <vector>

#include "support/graph_algo.hpp"

namespace ctdf::cfg {

namespace {

/// A write is strong iff the target is an unaliased scalar.
bool strong_def(const lang::SymbolTable& syms, const lang::LValue& lv) {
  return !lv.is_array_elem() && !syms.is_array(lv.var) &&
         syms.alias_class(lv.var).size() == 1;
}

}  // namespace

UseDef::UseDef(const Graph& g, const lang::SymbolTable& syms)
    : num_vars(syms.size()) {
  use.resize(g.size());
  def.resize(g.size());
  std::vector<lang::VarId> reads;
  for (NodeId n : g.all_nodes()) {
    use[n] = support::Bitset(num_vars);
    def[n] = support::Bitset(num_vars);
    const Node& node = g.node(n);
    reads.clear();
    switch (node.kind) {
      case NodeKind::kAssign:
        node.rhs->collect_vars(reads);
        if (node.lhs->index) node.lhs->index->collect_vars(reads);
        if (strong_def(syms, *node.lhs)) def[n].set(node.lhs->var.index());
        break;
      case NodeKind::kFork:
        node.pred->collect_vars(reads);
        break;
      default:
        break;
    }
    for (lang::VarId v : reads) use[n].set(v.index());
  }
}

Liveness::Liveness(const Graph& g, const lang::SymbolTable& syms) {
  const UseDef ud(g, syms);
  in_.resize(g.size());
  out_.resize(g.size());
  for (NodeId n : g.all_nodes()) {
    in_[n] = support::Bitset(ud.num_vars);
    out_[n] = support::Bitset(ud.num_vars);
  }
  // Everything is observable at end.
  for (std::size_t v = 0; v < ud.num_vars; ++v)
    in_[g.end()].set(v);

  // Round-robin over postorder until fixpoint (graphs are small;
  // postorder seeding keeps iteration counts low).
  support::GraphAlgo<NodeId> order;
  support::build_order(ForwardView{g}, order);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const NodeId n : order.postorder) {
      if (n == g.end()) continue;
      support::Bitset out(ud.num_vars);
      for (NodeId s : g.succs(n)) out.union_with(in_[s]);
      support::Bitset in = out;
      // in = use ∪ (out \ def)
      ud.def[n].for_each([&](std::size_t v) { in.reset(v); });
      in.union_with(ud.use[n]);
      if (!(out == out_[n])) {
        out_[n] = std::move(out);
        changed = true;
      }
      if (!(in == in_[n])) {
        in_[n] = std::move(in);
        changed = true;
      }
    }
  }
}

std::size_t eliminate_dead_stores(Graph& g, const lang::SymbolTable& syms) {
  std::size_t removed = 0;
  // Iterate: removing one dead store can make an earlier one dead.
  for (;;) {
    const Liveness live(g, syms);
    bool changed = false;
    for (NodeId n : g.all_nodes()) {
      Node& node = g.node(n);
      if (node.kind != NodeKind::kAssign) continue;
      if (node.lhs->is_array_elem() || syms.is_array(node.lhs->var)) continue;
      if (syms.alias_class(node.lhs->var).size() != 1) continue;
      if (live.live_out(n).test(node.lhs->var.index())) continue;
      // Dead: the value can never be observed. Demote to a join (no-op
      // pass-through); expression evaluation has no side effects.
      node.kind = NodeKind::kJoin;
      node.name = "dse";
      node.rhs = nullptr;
      node.lhs = nullptr;
      ++removed;
      changed = true;
    }
    if (!changed) break;
  }
  return removed;
}

}  // namespace ctdf::cfg
