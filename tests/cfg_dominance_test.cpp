#include <gtest/gtest.h>

#include <deque>

#include "cfg/build.hpp"
#include "cfg/dominance.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "support/oracles.hpp"

namespace ctdf::cfg {
namespace {

/// The graph borrows its statements from the program, so the parsed
/// programs are kept for the life of the test binary.
Graph build(std::string_view src) {
  static std::deque<lang::Program> programs;
  return build_cfg_or_throw(programs.emplace_back(lang::parse_or_throw(src)));
}

TEST(Postdominators, RootIsEnd) {
  const Graph g = build("var x; x := 1;");
  const DomTree pdom(g, DomDirection::kPostdom);
  EXPECT_EQ(pdom.root(), g.end());
  EXPECT_FALSE(pdom.idom(g.end()).valid());
}

TEST(Postdominators, EndPostdominatesEverything) {
  const auto p = lang::corpus::fig9();
  const Graph g = build_cfg_or_throw(p);
  const DomTree pdom(g, DomDirection::kPostdom);
  for (NodeId n : g.all_nodes()) EXPECT_TRUE(pdom.dominates(g.end(), n));
}

TEST(Postdominators, ReflexiveAndAntisymmetric) {
  const auto p = lang::corpus::fig9();
  const Graph g = build_cfg_or_throw(p);
  const DomTree pdom(g, DomDirection::kPostdom);
  for (NodeId a : g.all_nodes()) {
    EXPECT_TRUE(pdom.dominates(a, a));
    for (NodeId b : g.all_nodes()) {
      if (a != b && pdom.dominates(a, b)) {
        EXPECT_FALSE(pdom.dominates(b, a));
      }
    }
  }
}

TEST(Postdominators, DiamondJoinPostdominatesFork) {
  const Graph g = build("var x, w; if w { x := 1; } else { x := 2; }");
  const DomTree pdom(g, DomDirection::kPostdom);
  for (NodeId n : g.all_nodes()) {
    if (g.kind(n) != NodeKind::kFork) continue;
    const NodeId p = pdom.idom(n);
    // The fork's branches rejoin at its immediate postdominator.
    EXPECT_TRUE(g.kind(p) == NodeKind::kJoin || p == g.end());
  }
}

TEST(Dominators, StartDominatesEverything) {
  const auto p = lang::corpus::running_example();
  const Graph g = build_cfg_or_throw(p);
  const DomTree dom(g, DomDirection::kForward);
  for (NodeId n : g.all_nodes()) EXPECT_TRUE(dom.dominates(g.start(), n));
}

TEST(Dominators, LoopHeaderDominatesBody) {
  const Graph g = build("var x; while x < 3 { x := x + 1; }");
  const DomTree dom(g, DomDirection::kForward);
  // Find the back edge u→v; v must dominate u.
  bool found = false;
  for (NodeId u : g.all_nodes()) {
    for (NodeId v : g.succs(u)) {
      if (dom.dominates(v, u) && v != u) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DomTree, BottomUpOrderIsChildrenFirst) {
  const auto p = lang::corpus::fig9();
  const Graph g = build_cfg_or_throw(p);
  const DomTree pdom(g, DomDirection::kPostdom);
  std::vector<bool> seen(g.size(), false);
  for (NodeId n : pdom.bottom_up_order()) {
    for (NodeId c : pdom.children(n)) EXPECT_TRUE(seen[c.index()]);
    seen[n.index()] = true;
  }
  EXPECT_EQ(pdom.bottom_up_order().size(), g.size());
}

// Property: the efficient postdominator computation agrees with the
// brute-force removal-based oracle on random programs.
class PostdomOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PostdomOracle, MatchesNaive) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.allow_irreducible = true;
  opt.max_toplevel_stmts = 8;
  const auto prog = lang::generate_program(opt, GetParam());
  const Graph g = build_cfg_or_throw(prog);
  const DomTree pdom(g, DomDirection::kPostdom);
  for (NodeId a : g.all_nodes()) {
    for (NodeId b : g.all_nodes()) {
      EXPECT_EQ(pdom.dominates(a, b), testing::naive_postdominates(g, a, b))
          << "pdom(" << a.value() << "," << b.value() << ") seed "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostdomOracle,
                         ::testing::Range<std::uint64_t>(0, 12));

// The immediate postdominator is the *closest* strict postdominator.
class IpdomMinimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IpdomMinimality, IpdomIsClosestStrictPostdominator) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.max_toplevel_stmts = 8;
  const auto prog = lang::generate_program(opt, GetParam());
  const Graph g = build_cfg_or_throw(prog);
  const DomTree pdom(g, DomDirection::kPostdom);
  for (NodeId n : g.all_nodes()) {
    if (n == g.end()) continue;
    const NodeId ip = pdom.idom(n);
    EXPECT_TRUE(pdom.strictly_dominates(ip, n));
    // Every other strict postdominator of n also postdominates ip.
    for (NodeId m : g.all_nodes()) {
      if (m != n && pdom.strictly_dominates(m, n)) {
        EXPECT_TRUE(pdom.dominates(m, ip));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpdomMinimality,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ctdf::cfg
