#include <gtest/gtest.h>

#include <deque>

#include "cfg/build.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace ctdf::cfg {
namespace {

/// The graph borrows its statements from the program, so the parsed
/// programs are kept for the life of the test binary.
Graph build(std::string_view src) {
  static std::deque<lang::Program> programs;
  return build_cfg_or_throw(programs.emplace_back(lang::parse_or_throw(src)));
}

std::size_t count_kind(const Graph& g, NodeKind k) {
  std::size_t c = 0;
  for (NodeId n : g.all_nodes())
    if (g.kind(n) == k) ++c;
  return c;
}

TEST(CfgBuild, EmptyProgram) {
  const Graph g = build("var x;");
  EXPECT_TRUE(g.validate().empty());
  // start, end, and the final join.
  EXPECT_EQ(g.size(), 3u);
  // Conventional start→end edge: start is a fork.
  EXPECT_EQ(g.node(g.start()).succ_false, g.end());
}

TEST(CfgBuild, StartIsForkByConvention) {
  const Graph g = build("var x; x := 1;");
  const Node& start = g.node(g.start());
  EXPECT_TRUE(start.succ_true.valid());
  EXPECT_EQ(start.succ_false, g.end());
  EXPECT_EQ(g.preds(g.end()).size(), 2u);
}

TEST(CfgBuild, StraightLine) {
  const Graph g = build("var x, y; x := 1; y := x + 1;");
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(count_kind(g, NodeKind::kAssign), 2u);
  EXPECT_EQ(count_kind(g, NodeKind::kFork), 0u);
}

TEST(CfgBuild, StructuredIfMakesDiamond) {
  const Graph g = build("var x, w; if w { x := 1; } else { x := 2; }");
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(count_kind(g, NodeKind::kFork), 1u);
  // The if-join plus the final end-join.
  EXPECT_EQ(count_kind(g, NodeKind::kJoin), 2u);
}

TEST(CfgBuild, EmptyElseBranchWiresForkToJoin) {
  const Graph g = build("var x, w; if w { x := 1; }");
  EXPECT_TRUE(g.validate().empty());
  for (NodeId n : g.all_nodes()) {
    if (g.kind(n) != NodeKind::kFork || n == g.start()) continue;
    EXPECT_EQ(g.kind(g.node(n).succ_false), NodeKind::kJoin);
  }
}

TEST(CfgBuild, WhileMakesCycle) {
  const Graph g = build("var x; while x < 3 { x := x + 1; }");
  EXPECT_TRUE(g.validate().empty());
  // Header join has two predecessors: entry and back edge.
  bool found_header = false;
  for (NodeId n : g.all_nodes()) {
    if (g.kind(n) == NodeKind::kJoin && g.preds(n).size() == 2)
      found_header = true;
  }
  EXPECT_TRUE(found_header);
}

TEST(CfgBuild, RunningExampleShape) {
  const auto p = lang::corpus::running_example();
  const Graph g = build_cfg_or_throw(p);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(count_kind(g, NodeKind::kAssign), 2u);
  EXPECT_EQ(count_kind(g, NodeKind::kFork), 1u);
}

TEST(CfgBuild, DeadCodeIsPruned) {
  const Graph g = build(R"(
var x;
goto done;
x := 42;        // unreachable
done: x := 1;
)");
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(count_kind(g, NodeKind::kAssign), 1u);
}

TEST(CfgBuild, UnreferencedLabelJoinPruned) {
  const Graph g1 = build("var x; x := 1;");
  const Graph g2 = build("var x; unused: x := 1;");
  // The label join survives (it has a fall-through pred), so sizes may
  // differ; both must validate.
  EXPECT_TRUE(g1.validate().empty());
  EXPECT_TRUE(g2.validate().empty());
}

TEST(CfgBuild, InfiniteLoopRejected) {
  support::DiagnosticEngine d;
  const auto p = lang::parse_or_throw("var x; l: x := x + 1; goto l;");
  (void)build_cfg(p, d);
  EXPECT_TRUE(d.has_errors());
  EXPECT_NE(d.to_string().find("cannot reach end"), std::string::npos);
}

TEST(CfgBuild, GotoEndOnly) {
  const Graph g = build("var x; goto end; x := 5;");
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(count_kind(g, NodeKind::kAssign), 0u);
}

TEST(CfgBuild, RefsOfNodes) {
  const auto p = lang::parse_or_throw(
      "var x, y; array a[4]; x := a[y] + x;");
  const Graph g = build_cfg_or_throw(p);
  std::vector<lang::VarId> refs;
  for (NodeId n : g.all_nodes()) {
    if (g.kind(n) != NodeKind::kAssign) continue;
    g.refs(n, refs);
    EXPECT_EQ(refs.size(), 3u);  // x, a, y
  }
}

TEST(CfgBuild, ValidateCatchesMissingSuccessor) {
  Graph g;
  (void)g.add_join("j");  // never wired
  EXPECT_FALSE(g.validate().empty());
}

TEST(CfgBuild, DotOutputMentionsEveryNode) {
  const auto p = lang::corpus::running_example();
  const Graph g = build_cfg_or_throw(p);
  const std::string dot = g.to_dot(p.symbols);
  for (NodeId n : g.all_nodes()) {
    std::string id = "n";
    id += std::to_string(n.value());
    EXPECT_NE(dot.find(id), std::string::npos);
  }
}

TEST(CfgBuild, AllCorpusProgramsValidate) {
  for (const auto& np : lang::corpus::all()) {
    const lang::Program prog = lang::parse_or_throw(np.source);
    const Graph g = build_cfg_or_throw(prog);
    EXPECT_TRUE(g.validate().empty()) << np.name;
  }
}

}  // namespace
}  // namespace ctdf::cfg
