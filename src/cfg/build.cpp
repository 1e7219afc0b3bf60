#include "cfg/build.hpp"

#include <optional>
#include <unordered_map>
#include <utility>

#include "support/assert.hpp"

namespace ctdf::cfg {

namespace {

class Builder {
 public:
  Builder(const lang::Program& prog, support::DiagnosticEngine& diags)
      : prog_(prog), diags_(diags) {}

  Graph run() {
    // Joins for every label; `end` is the synthetic final join.
    end_join_ = g_.add_join("end");
    joins_.emplace("end", end_join_);
    for (const auto& s : prog_.body)
      for (const auto& l : s->labels) joins_.emplace(l, g_.add_join(l));

    current_ = {g_.start(), true};
    g_.set_succ(g_.start(), false, g_.end());  // conventional start→end edge

    for (const auto& s : prog_.body) lower_toplevel(*s);
    wire_to(end_join_);
    g_.set_succ(end_join_, true, g_.end());

    Graph pruned = prune(std::move(g_));
    for (auto& problem : pruned.validate())
      diags_.error({}, "CFG: " + problem);
    return pruned;
  }

 private:
  /// Wires the pending out-edge (if any) into `to`.
  void wire_to(NodeId to) {
    if (current_) g_.set_succ(current_->first, current_->second, to);
    current_.reset();
  }

  /// Wires the pending edge into `n` and makes `n`'s single out-edge the
  /// new pending edge.
  void append(NodeId n) {
    wire_to(n);
    current_ = {n, true};
  }

  void lower_toplevel(const lang::Stmt& s) {
    for (const auto& label : s.labels) append(joins_.at(label));
    // A statement that is unreachable (no pending edge, no label) is
    // dead code; skip it entirely.
    if (!current_) return;
    switch (s.kind) {
      case lang::Stmt::Kind::kGoto:
        wire_to(joins_.at(s.target_true));
        break;
      case lang::Stmt::Kind::kCondGoto: {
        const NodeId f = g_.add_fork(*s.expr);
        wire_to(f);
        g_.set_succ(f, true, joins_.at(s.target_true));
        g_.set_succ(f, false, joins_.at(s.target_false));
        break;
      }
      default:
        lower_structured(s);
        break;
    }
  }

  void lower_structured(const lang::Stmt& s) {
    switch (s.kind) {
      case lang::Stmt::Kind::kAssign:
        append(g_.add_assign(s.lhs, *s.expr));
        break;
      case lang::Stmt::Kind::kSkip:
        break;
      case lang::Stmt::Kind::kIf: {
        const NodeId f = g_.add_fork(*s.expr);
        wire_to(f);
        const NodeId j = g_.add_join();
        current_ = {f, true};
        for (const auto& t : s.then_body) lower_structured(*t);
        wire_to(j);
        current_ = {f, false};
        for (const auto& t : s.else_body) lower_structured(*t);
        wire_to(j);
        current_ = {j, true};
        break;
      }
      case lang::Stmt::Kind::kWhile: {
        const NodeId h = g_.add_join();
        append(h);
        const NodeId f = g_.add_fork(*s.expr);
        wire_to(f);
        current_ = {f, true};
        for (const auto& t : s.then_body) lower_structured(*t);
        wire_to(h);  // back edge
        current_ = {f, false};
        break;
      }
      case lang::Stmt::Kind::kGoto:
      case lang::Stmt::Kind::kCondGoto:
        CTDF_UNREACHABLE("gotos are top-level only (parser enforced)");
    }
  }

  /// Copies the subgraph reachable from start into a fresh graph,
  /// dropping dead label joins and unreachable code.
  Graph prune(Graph&& old) {
    std::vector<bool> reach(old.size(), false);
    std::vector<NodeId> stack{old.start()};
    reach[old.start().index()] = true;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (NodeId s : old.succs(n)) {
        if (!reach[s.index()]) {
          reach[s.index()] = true;
          stack.push_back(s);
        }
      }
    }

    Graph fresh;
    // Loop transformation adds an entry and exits per loop.
    fresh.reserve(2 * old.size());
    support::IndexMap<NodeId, NodeId> remap(old.size());
    remap[old.start()] = fresh.start();
    remap[old.end()] = fresh.end();
    for (NodeId n : old.all_nodes()) {
      if (!reach[n.index()] || n == old.start() || n == old.end()) continue;
      const Node& node = old.node(n);
      switch (node.kind) {
        case NodeKind::kAssign:
          remap[n] = fresh.add_assign(*node.lhs, *node.rhs);
          break;
        case NodeKind::kFork:
          remap[n] = fresh.add_fork(*node.pred);
          break;
        case NodeKind::kJoin:
          remap[n] = fresh.add_join(node.name);
          break;
        default:
          CTDF_UNREACHABLE("loop nodes cannot exist before LoopTransform");
      }
    }
    for (NodeId n : old.all_nodes()) {
      if (!reach[n.index()]) continue;
      const Node& node = old.node(n);
      if (node.succ_true.valid())
        fresh.set_succ(remap[n], true, remap[node.succ_true]);
      if (node.succ_false.valid())
        fresh.set_succ(remap[n], false, remap[node.succ_false]);
    }
    return fresh;
  }

  const lang::Program& prog_;
  support::DiagnosticEngine& diags_;
  Graph g_;
  NodeId end_join_;
  std::unordered_map<std::string, NodeId> joins_;
  std::optional<std::pair<NodeId, bool>> current_;
};

}  // namespace

Graph build_cfg(const lang::Program& prog, support::DiagnosticEngine& diags) {
  return Builder{prog, diags}.run();
}

Graph build_cfg_or_throw(const lang::Program& prog) {
  support::DiagnosticEngine diags;
  Graph g = build_cfg(prog, diags);
  diags.throw_if_errors();
  return g;
}

}  // namespace ctdf::cfg
