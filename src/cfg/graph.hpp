// Statement-level control-flow graphs (paper Section 2.1).
//
// Nodes are statements of three kinds — assignments, forks
// (`if p then goto lt else goto lf`), and joins — plus the unique
// `start` and `end` nodes. Following the paper's convention, `start` is
// itself a fork: its true out-edge leads to the program entry and its
// false out-edge leads directly to `end`, so `start` participates in
// control dependence like any other fork.
//
// After `LoopTransform` (see intervals.hpp) two more node kinds appear:
// loop-entry and loop-exit pseudo-statements (paper Section 3).
//
// Fork out-edges are indexed by a boolean out-direction; all other
// nodes have a single out-edge whose direction is `true` by convention
// (paper Section 2.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "support/bitset.hpp"
#include "support/ids.hpp"
#include "support/index_map.hpp"
#include "support/small_vec.hpp"

namespace ctdf::cfg {

struct NodeTag;
using NodeId = support::Id<NodeTag>;

struct LoopTag;
using LoopId = support::Id<LoopTag>;

enum class NodeKind : std::uint8_t {
  kStart,
  kEnd,
  kAssign,
  kFork,
  kJoin,
  kLoopEntry,  ///< inserted by LoopTransform
  kLoopExit,   ///< inserted by LoopTransform
};

[[nodiscard]] const char* to_string(NodeKind k);

/// A node's out-edges in fixed order: [succ_true] or [succ_true,
/// succ_false] for forks; empty for end. Held inline, since a node has
/// at most two.
class Succs {
 public:
  [[nodiscard]] const NodeId* begin() const { return ids_; }
  [[nodiscard]] const NodeId* end() const { return ids_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] NodeId operator[](std::size_t i) const { return ids_[i]; }

  void push_back(NodeId n) { ids_[size_++] = n; }

 private:
  NodeId ids_[2];
  std::uint8_t size_ = 0;
};

struct Node {
  NodeKind kind = NodeKind::kJoin;

  // kAssign payload. Borrowed from the lang::Program the graph was
  // built from (see build_cfg): the CFG never creates an expression.
  const lang::LValue* lhs = nullptr;
  const lang::Expr* rhs = nullptr;

  // kFork payload, borrowed likewise.
  const lang::Expr* pred = nullptr;

  // Out-edges. Non-forks use only succ_true ("true" is the conventional
  // single out-direction); kEnd has none.
  NodeId succ_true;
  NodeId succ_false;

  // In-edges, in insertion order; inline up to two (wider joins spill).
  support::SmallVec<NodeId, 2> preds;

  // Loop-control payload (kLoopEntry / kLoopExit).
  LoopId loop;

  /// Debug label (source label names, "start", ...).
  std::string name;
};

class Graph {
 public:
  Graph();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] NodeId start() const { return start_; }
  [[nodiscard]] NodeId end() const { return end_; }

  [[nodiscard]] const Node& node(NodeId n) const { return nodes_[n]; }
  [[nodiscard]] Node& node(NodeId n) { return nodes_[n]; }
  [[nodiscard]] NodeKind kind(NodeId n) const { return nodes_[n].kind; }

  /// The node refers to `lhs`, `rhs` and `pred`, which must outlive
  /// the graph.
  NodeId add_assign(const lang::LValue& lhs, const lang::Expr& rhs);
  NodeId add_fork(const lang::Expr& pred);
  NodeId add_join(std::string name = {});
  NodeId add_loop_entry(LoopId loop);
  NodeId add_loop_exit(LoopId loop);

  /// Room for `n` nodes, so building a graph of that size moves none.
  void reserve(std::size_t n) { nodes_.raw().reserve(n); }

  /// Wires the `dir` out-edge of `from` to `to` and records the reverse
  /// edge. The slot must be unset.
  void set_succ(NodeId from, bool dir, NodeId to);

  /// Redirects the existing edge `from --dir--> old` to `to`, fixing
  /// pred lists.
  void redirect_succ(NodeId from, bool dir, NodeId to);

  /// Successors of n in fixed order (see Succs).
  [[nodiscard]] Succs succs(NodeId n) const {
    const Node& node = nodes_[n];
    Succs out;
    if (node.succ_true.valid()) out.push_back(node.succ_true);
    if (node.succ_false.valid()) out.push_back(node.succ_false);
    return out;
  }

  /// True iff `from` has an out-edge in direction `dir`.
  [[nodiscard]] bool has_succ(NodeId from, bool dir) const;

  [[nodiscard]] std::span<const NodeId> preds(NodeId n) const {
    const auto& p = nodes_[n].preds;
    return {p.begin(), p.end()};
  }

  /// All node ids, ascending.
  [[nodiscard]] support::IdRange<NodeId> all_nodes() const {
    return support::IdRange<NodeId>{nodes_.size()};
  }

  /// Replaces `out` with the variables node n references: for
  /// assignments the lhs variable, index variables and rhs variables;
  /// for forks the predicate variables; none for other nodes. `out` is
  /// the caller's scratch, reused across calls.
  void refs(NodeId n, std::vector<lang::VarId>& out) const;

  /// Graphviz rendering.
  [[nodiscard]] std::string to_dot(const lang::SymbolTable& syms) const;

  /// Structural sanity: start/end unique and wired, every non-end node
  /// has its out-edges set, pred lists consistent, every node reachable
  /// from start and reaching end. Returns problems found (empty = ok).
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  NodeId add_node(NodeKind kind);

  support::IndexMap<NodeId, Node> nodes_;
  NodeId start_;
  NodeId end_;
};

/// The graph as the graph-algorithms toolkit (support/graph_algo.hpp)
/// walks it: from start along out-edges, true before false.
struct ForwardView {
  using Id = NodeId;
  const Graph& g;

  [[nodiscard]] std::size_t size() const { return g.size(); }
  [[nodiscard]] NodeId root() const { return g.start(); }
  [[nodiscard]] Succs succs(NodeId n) const { return g.succs(n); }
  [[nodiscard]] std::span<const NodeId> preds(NodeId n) const {
    return g.preds(n);
  }
};

/// The reversed graph, from end along in-edges (postdominators).
struct ReverseView {
  using Id = NodeId;
  const Graph& g;

  [[nodiscard]] std::size_t size() const { return g.size(); }
  [[nodiscard]] NodeId root() const { return g.end(); }
  [[nodiscard]] std::span<const NodeId> succs(NodeId n) const {
    return g.preds(n);
  }
  [[nodiscard]] Succs preds(NodeId n) const { return g.succs(n); }
};

}  // namespace ctdf::cfg
