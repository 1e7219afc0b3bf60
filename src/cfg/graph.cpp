#include "cfg/graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"
#include "support/graph_algo.hpp"

namespace ctdf::cfg {

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::kStart: return "start";
    case NodeKind::kEnd: return "end";
    case NodeKind::kAssign: return "assign";
    case NodeKind::kFork: return "fork";
    case NodeKind::kJoin: return "join";
    case NodeKind::kLoopEntry: return "loop-entry";
    case NodeKind::kLoopExit: return "loop-exit";
  }
  CTDF_UNREACHABLE("bad NodeKind");
}

Graph::Graph() {
  start_ = add_node(NodeKind::kStart);
  nodes_[start_].name = "start";
  end_ = add_node(NodeKind::kEnd);
  nodes_[end_].name = "end";
}

NodeId Graph::add_node(NodeKind kind) {
  const NodeId id{nodes_.size()};
  nodes_.ensure(id);
  nodes_[id].kind = kind;
  return id;
}

NodeId Graph::add_assign(const lang::LValue& lhs, const lang::Expr& rhs) {
  const NodeId id = add_node(NodeKind::kAssign);
  nodes_[id].lhs = &lhs;
  nodes_[id].rhs = &rhs;
  return id;
}

NodeId Graph::add_fork(const lang::Expr& pred) {
  const NodeId id = add_node(NodeKind::kFork);
  nodes_[id].pred = &pred;
  return id;
}

NodeId Graph::add_join(std::string name) {
  const NodeId id = add_node(NodeKind::kJoin);
  nodes_[id].name = std::move(name);
  return id;
}

NodeId Graph::add_loop_entry(LoopId loop) {
  const NodeId id = add_node(NodeKind::kLoopEntry);
  nodes_[id].loop = loop;
  return id;
}

NodeId Graph::add_loop_exit(LoopId loop) {
  const NodeId id = add_node(NodeKind::kLoopExit);
  nodes_[id].loop = loop;
  return id;
}

void Graph::set_succ(NodeId from, bool dir, NodeId to) {
  Node& n = nodes_[from];
  NodeId& slot = dir ? n.succ_true : n.succ_false;
  CTDF_ASSERT_MSG(!slot.valid(), "successor slot already wired");
  CTDF_ASSERT_MSG(dir || n.kind == NodeKind::kStart || n.kind == NodeKind::kFork,
                  "false out-direction only on forks/start");
  slot = to;
  nodes_[to].preds.push_back(from);
}

void Graph::redirect_succ(NodeId from, bool dir, NodeId to) {
  Node& n = nodes_[from];
  NodeId& slot = dir ? n.succ_true : n.succ_false;
  CTDF_ASSERT_MSG(slot.valid(), "no existing edge to redirect");
  auto& old_preds = nodes_[slot].preds;
  const auto it = std::find(old_preds.begin(), old_preds.end(), from);
  CTDF_ASSERT(it != old_preds.end());
  old_preds.erase(it);
  slot = to;
  nodes_[to].preds.push_back(from);
}

bool Graph::has_succ(NodeId from, bool dir) const {
  const Node& n = nodes_[from];
  return (dir ? n.succ_true : n.succ_false).valid();
}

void Graph::refs(NodeId n, std::vector<lang::VarId>& out) const {
  const Node& node = nodes_[n];
  out.clear();
  switch (node.kind) {
    case NodeKind::kAssign:
      out.push_back(node.lhs->var);
      if (node.lhs->index) node.lhs->index->collect_vars(out);
      node.rhs->collect_vars(out);
      break;
    case NodeKind::kFork:
      node.pred->collect_vars(out);
      break;
    default:
      break;
  }
}

std::string Graph::to_dot(const lang::SymbolTable& syms) const {
  std::ostringstream os;
  os << "digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n";
  for (NodeId n : all_nodes()) {
    const Node& node = nodes_[n];
    std::string label;
    switch (node.kind) {
      case NodeKind::kStart: label = "start"; break;
      case NodeKind::kEnd: label = "end"; break;
      case NodeKind::kJoin:
        label = node.name.empty() ? "join" : "join " + node.name;
        break;
      case NodeKind::kAssign:
        label = node.lhs->to_string(syms) + " := " + node.rhs->to_string(syms);
        break;
      case NodeKind::kFork:
        label = "if " + node.pred->to_string(syms);
        break;
      case NodeKind::kLoopEntry:
        label = "loop-entry " + std::to_string(node.loop.value());
        break;
      case NodeKind::kLoopExit:
        label = "loop-exit " + std::to_string(node.loop.value());
        break;
    }
    os << "  n" << n.value() << " [label=\"" << n.value() << ": " << label
       << "\"];\n";
  }
  for (NodeId n : all_nodes()) {
    const Node& node = nodes_[n];
    if (node.succ_true.valid()) {
      os << "  n" << n.value() << " -> n" << node.succ_true.value();
      if (node.kind == NodeKind::kFork || node.kind == NodeKind::kStart)
        os << " [label=\"T\"]";
      os << ";\n";
    }
    if (node.succ_false.valid())
      os << "  n" << n.value() << " -> n" << node.succ_false.value()
         << " [label=\"F\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::vector<std::string> Graph::validate() const {
  std::vector<std::string> problems;
  const auto fail = [&](std::string msg) { problems.push_back(std::move(msg)); };

  for (NodeId n : all_nodes()) {
    const Node& node = nodes_[n];
    const bool needs_two = node.kind == NodeKind::kFork ||
                           node.kind == NodeKind::kStart;
    if (node.kind == NodeKind::kEnd) {
      if (node.succ_true.valid() || node.succ_false.valid())
        fail("end node has successors");
      continue;
    }
    if (!node.succ_true.valid())
      fail("node " + std::to_string(n.value()) + " missing true successor");
    if (needs_two && !node.succ_false.valid())
      fail("fork " + std::to_string(n.value()) + " missing false successor");
    if (!needs_two && node.succ_false.valid())
      fail("non-fork " + std::to_string(n.value()) + " has false successor");
  }

  // Pred list consistency.
  std::vector<std::uint32_t> in_count(size(), 0);
  for (NodeId n : all_nodes())
    for (NodeId s : succs(n)) in_count[s.index()]++;
  for (NodeId n : all_nodes()) {
    if (preds(n).size() != in_count[n.index()])
      fail("pred list of node " + std::to_string(n.value()) + " inconsistent");
  }

  // Reachability: every node on some start→end path.
  support::GraphAlgo<NodeId> fwd, bwd;
  support::build_order(ForwardView{*this}, fwd);
  support::build_order(ReverseView{*this}, bwd);
  for (NodeId n : all_nodes()) {
    if (!fwd.reachable(n))
      fail("node " + std::to_string(n.value()) + " unreachable from start");
    else if (!bwd.reachable(n))
      fail("node " + std::to_string(n.value()) + " cannot reach end");
  }
  return problems;
}

}  // namespace ctdf::cfg
