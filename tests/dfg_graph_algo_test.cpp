// Unit tests for the graph-algorithms toolkit (support/graph_algo.hpp)
// over dfg::FlowView on hand-built dataflow graphs, where every
// dominator and loop depth can be stated by inspection.
#include <gtest/gtest.h>

#include "dfg/graph.hpp"
#include "support/graph_algo.hpp"

namespace ctdf::dfg {
namespace {

using Algo = support::GraphAlgo<NodeId>;

Algo analyze(const Graph& g) {
  const FlowView view(g);
  Algo algo;
  support::build_order(view, algo);
  support::build_dominators(view, algo);
  support::build_loops(view, algo);
  return algo;
}

NodeId add_start(Graph& g, std::uint16_t outs = 1) {
  Node s;
  s.kind = OpKind::kStart;
  s.num_outputs = outs;
  s.start_values.assign(outs, 0);
  const NodeId n = g.add(std::move(s));
  g.set_start(n);
  return n;
}

NodeId add_end(Graph& g, std::uint16_t ins = 1) {
  Node e;
  e.kind = OpKind::kEnd;
  e.num_inputs = ins;
  const NodeId n = g.add(std::move(e));
  g.set_end(n);
  return n;
}

/// 1-in/1-out pass-through — the generic "basic block" of these shape
/// tests (merge ports tolerate any fan-in).
NodeId block(Graph& g, const char* label) { return g.add_merge(label); }

void wire(Graph& g, NodeId src, NodeId dst, std::uint16_t dst_port = 0) {
  g.connect({src, 0}, {dst, dst_port}, false);
}

TEST(GraphAlgo, StraightLineHasChainDominatorsAndDepthZero) {
  Graph g;
  const NodeId s = add_start(g);
  const NodeId a = block(g, "a");
  const NodeId b = block(g, "b");
  const NodeId e = add_end(g);
  wire(g, s, a);
  wire(g, a, b);
  wire(g, b, e);

  const Algo an = analyze(g);
  EXPECT_EQ(an.preorder.size(), 4u);
  EXPECT_EQ(an.postorder.size(), 4u);
  EXPECT_EQ(an[a].idom, s);
  EXPECT_EQ(an[b].idom, a);
  EXPECT_EQ(an[e].idom, b);
  for (const NodeId n : {s, a, b, e}) {
    EXPECT_TRUE(an.reachable(n));
    EXPECT_EQ(an.loop_depth(n), 0u);
    EXPECT_FALSE(an[n].iloop_header.valid());
  }
}

TEST(GraphAlgo, DiamondJoinIsDominatedByTheForkOnly) {
  Graph g;
  const NodeId s = add_start(g);
  const NodeId fork = block(g, "fork");
  const NodeId left = block(g, "left");
  const NodeId right = block(g, "right");
  const NodeId join = block(g, "join");
  const NodeId e = add_end(g);
  wire(g, s, fork);
  wire(g, fork, left);
  wire(g, fork, right);
  wire(g, left, join);
  wire(g, right, join);
  wire(g, join, e);

  const Algo an = analyze(g);
  EXPECT_EQ(an[join].idom, fork);
  EXPECT_TRUE(an.dominates(fork, join));
  EXPECT_TRUE(an.dominates(s, join));
  EXPECT_FALSE(an.dominates(left, join));
  EXPECT_FALSE(an.dominates(right, join));
  EXPECT_TRUE(an.dominates(join, join));  // reflexive
  EXPECT_EQ(an.max_loop_depth(), 0u);
}

TEST(GraphAlgo, SelfLoopIsItsOwnHeaderAtDepthOne) {
  Graph g;
  const NodeId s = add_start(g);
  const NodeId a = block(g, "a");
  const NodeId e = add_end(g);
  wire(g, s, a);
  wire(g, a, a);  // back arc: a dominates a
  wire(g, a, e);

  const Algo an = analyze(g);
  EXPECT_EQ(an.loop_depth(a), 1u);
  EXPECT_EQ(an[a].iloop_header, a);
  EXPECT_EQ(an.loop_depth(s), 0u);
  EXPECT_EQ(an.loop_depth(e), 0u);
  EXPECT_EQ(an.max_loop_depth(), 1u);
}

TEST(GraphAlgo, SimpleLoopBodySharesTheHeader) {
  Graph g;
  const NodeId s = add_start(g);
  const NodeId h = block(g, "head");
  const NodeId b = block(g, "body");
  const NodeId e = add_end(g);
  wire(g, s, h);
  wire(g, h, b);
  wire(g, b, h);  // back arc: h dominates b
  wire(g, b, e);

  const Algo an = analyze(g);
  EXPECT_EQ(an[b].idom, h);
  EXPECT_EQ(an.loop_depth(h), 1u);
  EXPECT_EQ(an.loop_depth(b), 1u);
  EXPECT_EQ(an[h].iloop_header, h);
  EXPECT_EQ(an[b].iloop_header, h);
  EXPECT_EQ(an.loop_depth(e), 0u);
}

TEST(GraphAlgo, NestedLoopsStackDepths) {
  // start → h1 → h2 → b → (h2 back) ; b → x → (h1 back) ; x → end
  Graph g;
  const NodeId s = add_start(g);
  const NodeId h1 = block(g, "h1");
  const NodeId h2 = block(g, "h2");
  const NodeId b = block(g, "b");
  const NodeId x = block(g, "x");
  const NodeId e = add_end(g);
  wire(g, s, h1);
  wire(g, h1, h2);
  wire(g, h2, b);
  wire(g, b, h2);  // inner back arc
  wire(g, b, x);
  wire(g, x, h1);  // outer back arc
  wire(g, x, e);

  const Algo an = analyze(g);
  EXPECT_EQ(an.loop_depth(h1), 1u);
  EXPECT_EQ(an.loop_depth(x), 1u);
  EXPECT_EQ(an.loop_depth(h2), 2u);
  EXPECT_EQ(an.loop_depth(b), 2u);
  EXPECT_EQ(an[b].iloop_header, h2);
  EXPECT_EQ(an[x].iloop_header, h1);
  EXPECT_EQ(an.max_loop_depth(), 2u);
  // The inner header's innermost loop is its own.
  EXPECT_EQ(an[h2].iloop_header, h2);
  EXPECT_EQ(an[h2].loop_parent, h1);
  EXPECT_TRUE(an.loop_contains(h1, b));
  EXPECT_FALSE(an.loop_contains(h2, x));
  EXPECT_TRUE(support::is_reducible(FlowView{g}, an));
}

TEST(GraphAlgo, TwoEntryCycleIsIrreducibleAndNoLoop) {
  // start → a, start → b, a ⇄ b: neither entry dominates the other.
  Graph g;
  const NodeId s = add_start(g, 2);
  const NodeId a = block(g, "a");
  const NodeId b = block(g, "b");
  const NodeId e = add_end(g);
  g.connect({s, 0}, {a, 0}, false);
  g.connect({s, 1}, {b, 0}, false);
  wire(g, a, b);
  wire(g, b, a);
  wire(g, b, e);

  const Algo an = analyze(g);
  EXPECT_FALSE(support::is_reducible(FlowView{g}, an));
  EXPECT_EQ(an[a].idom, s);
  EXPECT_EQ(an[b].idom, s);
  EXPECT_EQ(an.max_loop_depth(), 0u);
  EXPECT_TRUE(an.loop_headers.empty());
}

TEST(GraphAlgo, UnreachableNodesHaveNoOrderDominatorOrDepth) {
  Graph g;
  const NodeId s = add_start(g);
  const NodeId a = block(g, "a");
  const NodeId orphan = block(g, "orphan");  // never wired from start
  const NodeId e = add_end(g);
  wire(g, s, a);
  wire(g, a, e);
  wire(g, orphan, e);

  const Algo an = analyze(g);
  EXPECT_FALSE(an.reachable(orphan));
  EXPECT_EQ(an[orphan].preorder_i, support::kUnvisited);
  EXPECT_FALSE(an[orphan].idom.valid());
  EXPECT_EQ(an.loop_depth(orphan), 0u);
  EXPECT_FALSE(an.dominates(s, orphan));
  EXPECT_FALSE(an.dominates(orphan, e));
  // Reachable nodes are unaffected by the orphan.
  EXPECT_TRUE(an.dominates(a, e));
}

}  // namespace
}  // namespace ctdf::dfg
