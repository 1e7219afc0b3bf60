// One graph-algorithms toolkit for every flow graph in ctdf: DFS
// orders, dominators, a reducibility test and the natural-loop forest.
//
// Section 3's interval transformation and Section 4.1's switch
// placement both rest on these. They run over three views of two
// graphs: the CFG forward from start and reversed from end
// (postdominators, cfg/graph.hpp) and the dataflow graph's arcs from
// its Start node (dfg/graph.hpp). A view is any type with
//
//   using Id = support::Id<Tag>;      // dense ids 0 .. size() - 1
//   std::size_t size() const;
//   Id root() const;
//   R succs(Id n) const;              // sized and indexable
//   R preds(Id n) const;              // iterable
//
// whose neighbour lists are read in place. The DFS visits successors in
// the view's order, so every order below, and every graph built by
// walking one, is a function of the graph alone.
//
// Results live in one per-node table (`AlgoNode`), sized once per call.
// Nodes unreachable from the root stay unvisited: no order position,
// no immediate dominator, dominated by nothing, loop depth 0.
//
// Loops are natural loops: a back edge is an edge u → h whose target
// dominates its source, and h's loop is h plus every node that reaches
// one of h's back-edge sources without passing h (all back edges into
// one header merge). Natural loops with distinct headers are nested or
// disjoint on any flow graph, so they form a forest, found by Tarjan's
// union-find walk over the back edges, innermost headers first. A
// cycle entered other than through a dominating header (an irreducible
// region) is not a loop here; `is_reducible` reports whether one
// exists.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"
#include "support/ids.hpp"

namespace ctdf::support {

inline constexpr std::uint32_t kUnvisited = UINT32_MAX;

/// What the toolkit knows about one node.
template <typename IdT>
struct AlgoNode {
  std::uint32_t preorder_i = kUnvisited;   ///< DFS preorder position
  std::uint32_t postorder_i = kUnvisited;  ///< DFS postorder position
  IdT idom;          ///< immediate dominator; invalid for the root
                     ///< and for unreachable nodes
  IdT iloop_header;  ///< innermost loop's header (a header's own);
                     ///< invalid outside every loop
  bool is_loop_header = false;

  /// Dominator-tree preorder: a dominates b iff
  /// dom_pre(a) <= dom_pre(b) <= dom_last(a).
  std::uint32_t dom_pre = kUnvisited;
  std::uint32_t dom_last = 0;

  // Loop tree, set on headers only.
  IdT loop_parent;               ///< the enclosing loop's header
  std::uint32_t loop_depth = 0;  ///< loops containing the header (≥ 1)
  /// Loop-tree preorder: loop h contains loop g iff
  /// loop_pre(h) <= loop_pre(g) <= loop_last(h).
  std::uint32_t loop_pre = 0;
  std::uint32_t loop_last = 0;
};

template <typename IdT>
struct GraphAlgo {
  std::vector<AlgoNode<IdT>> nodes;  ///< by node index
  std::vector<IdT> preorder;         ///< reachable nodes, DFS preorder
  std::vector<IdT> postorder;        ///< reachable nodes, DFS postorder
  std::vector<IdT> loop_headers;     ///< headers in loop-tree preorder

  [[nodiscard]] const AlgoNode<IdT>& operator[](IdT n) const {
    return nodes[n.index()];
  }
  [[nodiscard]] AlgoNode<IdT>& operator[](IdT n) { return nodes[n.index()]; }

  [[nodiscard]] bool reachable(IdT n) const {
    return nodes[n.index()].preorder_i != kUnvisited;
  }

  /// Does a dominate b? Reflexive; false if either is unreachable.
  [[nodiscard]] bool dominates(IdT a, IdT b) const {
    const AlgoNode<IdT>& na = nodes[a.index()];
    const std::uint32_t pb = nodes[b.index()].dom_pre;
    return na.dom_pre <= pb && pb <= na.dom_last && pb != kUnvisited;
  }

  /// The nearest common dominator of two processed nodes, by walking
  /// idom links up to equal postorder positions (Cooper, Harvey and
  /// Kennedy, "A simple, fast dominance algorithm").
  [[nodiscard]] IdT dom_intersect(IdT a, IdT b) const {
    while (a != b) {
      while ((*this)[a].postorder_i < (*this)[b].postorder_i)
        a = (*this)[a].idom;
      while ((*this)[b].postorder_i < (*this)[a].postorder_i)
        b = (*this)[b].idom;
    }
    return a;
  }

  /// Is n inside the loop headed by h (h itself included)?
  [[nodiscard]] bool loop_contains(IdT h, IdT n) const {
    const IdT l = (*this)[n].iloop_header;
    if (!l.valid()) return false;
    const AlgoNode<IdT>& nh = (*this)[h];
    const std::uint32_t pl = (*this)[l].loop_pre;
    return nh.is_loop_header && nh.loop_pre <= pl && pl <= nh.loop_last;
  }

  /// Number of loops containing n.
  [[nodiscard]] std::uint32_t loop_depth(IdT n) const {
    const IdT l = (*this)[n].iloop_header;
    return l.valid() ? (*this)[l].loop_depth : 0;
  }

  [[nodiscard]] std::uint32_t max_loop_depth() const {
    std::uint32_t best = 0;
    for (IdT h : loop_headers)
      best = std::max(best, (*this)[h].loop_depth);
    return best;
  }
};

namespace detail {

/// Numbers a forest in preorder, for O(1) ancestor tests. `top_down`
/// lists its nodes, each after its parent (field `parent`, invalid at a
/// root); a node's field `pre` gets its position and `last` the last
/// position in its subtree. Subtree sizes are summed bottom-up into
/// `last` (which starts at 0), then each node takes the next free
/// position after its parent's earlier children.
template <typename IdT>
void number_forest(GraphAlgo<IdT>& a, const std::vector<IdT>& top_down,
                   IdT AlgoNode<IdT>::*parent,
                   std::uint32_t AlgoNode<IdT>::*pre,
                   std::uint32_t AlgoNode<IdT>::*last) {
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    AlgoNode<IdT>& d = a[*it];
    d.*last += 1;
    if ((d.*parent).valid()) a[d.*parent].*last += d.*last;
  }
  std::vector<std::uint32_t> next(a.nodes.size());
  std::uint32_t next_root = 0;
  for (IdT n : top_down) {
    AlgoNode<IdT>& d = a[n];
    std::uint32_t& slot =
        (d.*parent).valid() ? next[(d.*parent).index()] : next_root;
    d.*pre = slot;
    slot += d.*last;
    d.*last = d.*pre + d.*last - 1;
    next[n.index()] = d.*pre + 1;
  }
}

}  // namespace detail

/// Resets the table to `v`'s size and fills the DFS pre- and postorder
/// from the root (iterative: graphs can be deep).
template <typename View>
void build_order(const View& v, GraphAlgo<typename View::Id>& a) {
  using IdT = typename View::Id;
  a.nodes.assign(v.size(), AlgoNode<IdT>{});
  a.preorder.clear();
  a.postorder.clear();
  a.loop_headers.clear();
  a.preorder.reserve(v.size());
  a.postorder.reserve(v.size());
  if (!v.root().valid()) return;

  struct Frame {
    IdT node;
    std::uint32_t i = 0;  ///< next successor, by position
  };
  std::vector<Frame> stack;
  stack.reserve(v.size());
  const auto visit = [&](IdT n) {
    a[n].preorder_i = static_cast<std::uint32_t>(a.preorder.size());
    a.preorder.push_back(n);
    stack.push_back({n});
  };
  visit(v.root());
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto& succs = v.succs(f.node);
    if (f.i < succs.size()) {
      const IdT m = succs[f.i++];
      if (!a.reachable(m)) visit(m);
    } else {
      a[f.node].postorder_i = static_cast<std::uint32_t>(a.postorder.size());
      a.postorder.push_back(f.node);
      stack.pop_back();
    }
  }
}

/// Immediate dominators by Cooper–Harvey–Kennedy iteration over
/// reverse postorder, then the dominator tree's preorder numbering.
/// Requires build_order.
template <typename View>
void build_dominators(const View& v, GraphAlgo<typename View::Id>& a) {
  using IdT = typename View::Id;
  if (a.postorder.empty()) return;
  const IdT root = v.root();

  a[root].idom = root;  // sentinel during iteration
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = a.postorder.rbegin(); it != a.postorder.rend(); ++it) {
      const IdT n = *it;
      if (n == root) continue;
      IdT new_idom;
      for (IdT p : v.preds(n)) {
        if (!a[p].idom.valid()) continue;  // not yet processed, or unreachable
        new_idom = new_idom.valid() ? a.dom_intersect(p, new_idom) : p;
      }
      // The DFS-tree parent precedes n in reverse postorder, so some
      // predecessor is always processed.
      CTDF_ASSERT_MSG(new_idom.valid(), "node with no processed predecessor");
      if (a[n].idom != new_idom) {
        a[n].idom = new_idom;
        changed = true;
      }
    }
  }
  a[root].idom = IdT::invalid();

  // An immediate dominator is a proper DFS ancestor, so it comes first
  // in preorder.
  detail::number_forest(a, a.preorder, &AlgoNode<IdT>::idom,
                        &AlgoNode<IdT>::dom_pre, &AlgoNode<IdT>::dom_last);
}

/// True iff every retreating DFS edge (one into a DFS ancestor of its
/// source, or a self edge) targets a dominator of its source: the graph
/// has no irreducible region. Requires build_dominators.
template <typename View>
[[nodiscard]] bool is_reducible(const View& v,
                                const GraphAlgo<typename View::Id>& a) {
  for (auto u : a.preorder) {
    for (auto w : v.succs(u)) {
      const bool retreating = a[w].preorder_i <= a[u].preorder_i &&
                              a[u].postorder_i <= a[w].postorder_i;
      if (retreating && !a.dominates(w, u)) return false;
    }
  }
  return true;
}

/// The natural-loop forest: headers, each node's innermost header, each
/// loop's parent, depth and loop-tree numbering. Headers are taken in
/// reverse preorder, so inner loops come first (a header dominates, and
/// so precedes, every header nested in it); each one's body is walked
/// backward from its back-edge sources over union-find representatives,
/// so an inner loop already found is crossed through its header alone
/// and every node is collapsed once. Requires build_dominators.
template <typename View>
void build_loops(const View& v, GraphAlgo<typename View::Id>& a) {
  using IdT = typename View::Id;
  std::vector<std::uint32_t> rep(v.size());  ///< union-find parent
  for (std::size_t i = 0; i < rep.size(); ++i)
    rep[i] = static_cast<std::uint32_t>(i);
  const auto find = [&](std::uint32_t x) {
    while (rep[x] != x) x = rep[x] = rep[rep[x]];  // path halving
    return IdT{x};
  };
  std::vector<IdT> taken_by(v.size());  ///< header whose walk took a rep
  std::vector<IdT> body;

  for (auto it = a.preorder.rbegin(); it != a.preorder.rend(); ++it) {
    const IdT h = *it;
    body.clear();
    const auto take = [&](IdT y) {
      if (!a.reachable(y)) return;
      const IdT r = find(y.value());
      if (r == h || taken_by[r.index()] == h) return;
      taken_by[r.index()] = h;
      body.push_back(r);
    };
    bool header = false;
    for (IdT p : v.preds(h)) {
      if (!a.dominates(h, p)) continue;  // not a back edge
      header = true;
      take(p);
    }
    if (!header) continue;
    a[h].is_loop_header = true;
    a[h].iloop_header = h;
    for (std::size_t k = 0; k < body.size(); ++k)
      for (IdT y : v.preds(body[k])) take(y);
    for (IdT x : body) {
      rep[x.index()] = h.value();
      (a[x].is_loop_header ? a[x].loop_parent : a[x].iloop_header) = h;
    }
  }

  // A loop's header dominates, and so precedes, the headers nested in it.
  std::vector<IdT> headers;
  for (IdT h : a.preorder) {
    if (!a[h].is_loop_header) continue;
    headers.push_back(h);
    const IdT p = a[h].loop_parent;
    a[h].loop_depth = p.valid() ? a[p].loop_depth + 1 : 1;
  }
  detail::number_forest(a, headers, &AlgoNode<IdT>::loop_parent,
                        &AlgoNode<IdT>::loop_pre, &AlgoNode<IdT>::loop_last);
  a.loop_headers.resize(headers.size());
  for (IdT h : headers) a.loop_headers[a[h].loop_pre] = h;
}

}  // namespace ctdf::support
