#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/build.hpp"
#include "cfg/dominance.hpp"
#include "cfg/intervals.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"

namespace ctdf::cfg {
namespace {

struct Transformed {
  lang::Program prog;  ///< the graph borrows its statements
  Graph g;
  LoopInfo info;

  explicit Transformed(lang::Program p)
      : prog(std::move(p)), g(build_cfg_or_throw(prog)) {
    support::DiagnosticEngine d;
    info = transform_loops(g, d);
    EXPECT_FALSE(d.has_errors()) << d.to_string();
  }
};

TEST(LoopTransform, AcyclicProgramHasNoLoops) {
  Transformed t(lang::corpus::fig9());
  EXPECT_TRUE(t.info.loops().empty());
  EXPECT_EQ(t.info.nodes_split(), 0);
}

TEST(LoopTransform, RunningExampleHasOneLoop) {
  Transformed t(lang::corpus::running_example());
  ASSERT_EQ(t.info.loops().size(), 1u);
  const Loop& l = t.info.loops().front();
  EXPECT_TRUE(l.entry.valid());
  EXPECT_EQ(l.exits.size(), 1u);
  EXPECT_EQ(t.g.kind(l.entry), NodeKind::kLoopEntry);
  EXPECT_EQ(t.g.kind(l.exits.front()), NodeKind::kLoopExit);
  EXPECT_TRUE(t.g.validate().empty());
}

TEST(LoopTransform, EveryHeaderEdgeGoesThroughEntry) {
  Transformed t(lang::corpus::running_example());
  const Loop& l = t.info.loops().front();
  // The header's only predecessor is the loop-entry node.
  ASSERT_EQ(t.g.preds(l.header).size(), 1u);
  EXPECT_EQ(t.g.preds(l.header).front(), l.entry);
  // The entry has an external pred and a back-edge pred.
  EXPECT_GE(t.g.preds(l.entry).size(), 2u);
  bool has_back = false, has_external = false;
  for (NodeId p : t.g.preds(l.entry)) {
    if (t.info.is_back_edge(p, l.entry))
      has_back = true;
    else
      has_external = true;
  }
  EXPECT_TRUE(has_back);
  EXPECT_TRUE(has_external);
}

TEST(LoopTransform, ExitEdgesLeaveTheLoop) {
  Transformed t(lang::corpus::running_example());
  const Loop& l = t.info.loops().front();
  for (NodeId x : l.exits) {
    // Exit node's pred is in the loop, its successor is not.
    for (NodeId p : t.g.preds(x)) EXPECT_TRUE(t.info.in_loop(p, l.id));
    EXPECT_FALSE(t.info.in_loop(t.g.node(x).succ_true, l.id));
  }
}

TEST(LoopTransform, NestedLoopsNestProperly) {
  Transformed t(lang::parse_or_throw(lang::corpus::nested_loops_source(3, 4)));
  ASSERT_EQ(t.info.loops().size(), 2u);
  const Loop* inner = nullptr;
  const Loop* outer = nullptr;
  for (const Loop& l : t.info.loops())
    (l.depth == 1 ? inner : outer) = &l;
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_FALSE(outer->parent.valid());
  // Inner loop nodes are members of the outer loop too.
  EXPECT_TRUE(t.info.in_loop(inner->entry, outer->id));
  for (NodeId x : inner->exits) EXPECT_TRUE(t.info.in_loop(x, outer->id));
  // Inner membership is a subset of outer membership.
  for (NodeId m : t.info.nodes(inner->id))
    EXPECT_TRUE(t.info.in_loop(m, outer->id));
}

TEST(LoopTransform, InnerBackEdgeToOuterHeaderChainsExits) {
  // while (i<2) { while (j<2) { j:=j+1; } i:=i+1; } — inner exit feeds
  // the outer body.
  Transformed t(lang::parse_or_throw(lang::corpus::nested_loops_source(2, 2)));
  EXPECT_TRUE(t.g.validate().empty());
}

TEST(LoopTransform, IrreducibleGraphIsSplit) {
  Transformed t(lang::parse_or_throw(lang::corpus::irreducible_source()));
  EXPECT_GT(t.info.nodes_split(), 0);
  EXPECT_FALSE(t.info.loops().empty());
  EXPECT_TRUE(t.g.validate().empty());
  // After splitting, every loop has a unique header entered only via
  // its loop-entry node.
  for (const Loop& l : t.info.loops()) {
    ASSERT_EQ(t.g.preds(l.header).size(), 1u);
    EXPECT_EQ(t.g.preds(l.header).front(), l.entry);
  }
}

TEST(LoopTransform, SelfLoop) {
  Transformed t(lang::parse_or_throw(
      "var x; l: x := x + 1; if x >= 3 then goto end else goto l;"));
  // The cycle may include the join/fork nodes; there must be exactly
  // one loop and the graph must stay valid.
  EXPECT_EQ(t.info.loops().size(), 1u);
  EXPECT_TRUE(t.g.validate().empty());
}

TEST(LoopTransform, UsedVarsOfLoop) {
  Transformed t(lang::corpus::running_example());
  const Loop& l = t.info.loops().front();
  const auto used = t.info.used_vars(t.g)[l.id.index()];
  EXPECT_EQ(used.size(), 2u);  // x and y
}

TEST(LoopTransform, MembershipAfterTransformIsCyclic) {
  // Every loop member can reach the loop entry within the loop (via the
  // back edge) — spot check: entry reaches header.
  Transformed t(lang::corpus::running_example());
  const Loop& l = t.info.loops().front();
  EXPECT_EQ(t.g.node(l.entry).succ_true, l.header);
}

class LoopTransformProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LoopTransformProperty, TransformedGraphsValidate) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.allow_irreducible = true;
  opt.num_arrays = 1;
  Transformed t(lang::generate_program(opt, GetParam()));
  EXPECT_TRUE(t.g.validate().empty());

  // All cycles pass through a loop-entry node: removing every loop
  // entry must make the graph acyclic (checked via RPO property: every
  // remaining edge goes forward).
  std::vector<bool> removed(t.g.size(), false);
  for (const Loop& l : t.info.loops()) removed[l.entry.index()] = true;
  // Kahn-style: repeatedly strip nodes with no unremoved preds.
  std::vector<int> indeg(t.g.size(), 0);
  for (NodeId n : t.g.all_nodes()) {
    if (removed[n.index()]) continue;
    for (NodeId s : t.g.succs(n))
      if (!removed[s.index()]) ++indeg[s.index()];
  }
  std::vector<NodeId> q;
  std::size_t alive = 0;
  for (NodeId n : t.g.all_nodes()) {
    if (removed[n.index()]) continue;
    ++alive;
    if (indeg[n.index()] == 0) q.push_back(n);
  }
  std::size_t stripped = 0;
  while (!q.empty()) {
    const NodeId n = q.back();
    q.pop_back();
    ++stripped;
    for (NodeId s : t.g.succs(n)) {
      if (removed[s.index()]) continue;
      if (--indeg[s.index()] == 0) q.push_back(s);
    }
  }
  EXPECT_EQ(stripped, alive)
      << "cycle not broken by loop entries, seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopTransformProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace ctdf::cfg
