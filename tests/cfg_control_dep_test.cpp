#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dominance.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "support/oracles.hpp"

namespace ctdf::cfg {
namespace {

struct Analysis {
  lang::Program prog;  ///< the graph borrows its statements
  Graph g;
  DomTree pdom;
  ControlDeps cd;

  explicit Analysis(lang::Program p)
      : prog(std::move(p)),
        g(build_cfg_or_throw(prog)),
        pdom(g, DomDirection::kPostdom),
        cd(g, pdom) {}
};

TEST(ControlDeps, StraightLineHasOnlyStartDependences) {
  Analysis a(lang::parse_or_throw("var x, y; x := 1; y := 2;"));
  for (NodeId n : a.g.all_nodes()) {
    for (const ControlDep& d : a.cd.deps(n)) {
      EXPECT_EQ(d.fork, a.g.start());
      EXPECT_TRUE(d.direction);  // everything hangs off start's true edge
    }
  }
}

TEST(ControlDeps, BranchBodiesDependOnFork) {
  Analysis a(lang::parse_or_throw(
      "var x, w; if w { x := 1; } else { x := 2; }"));
  NodeId fork;
  for (NodeId n : a.g.all_nodes())
    if (a.g.kind(n) == NodeKind::kFork) fork = n;
  ASSERT_TRUE(fork.valid());

  int dependents = 0;
  bool saw_true = false, saw_false = false;
  for (NodeId n : a.g.all_nodes()) {
    for (const ControlDep& d : a.cd.deps(n)) {
      if (d.fork != fork) continue;
      ++dependents;
      (d.direction ? saw_true : saw_false) = true;
      EXPECT_EQ(a.g.kind(n), NodeKind::kAssign);
    }
  }
  EXPECT_EQ(dependents, 2);
  EXPECT_TRUE(saw_true);
  EXPECT_TRUE(saw_false);
}

TEST(ControlDeps, LoopBodyDependsOnLoopFork) {
  Analysis a(lang::corpus::running_example());
  NodeId fork;
  for (NodeId n : a.g.all_nodes())
    if (a.g.kind(n) == NodeKind::kFork && n != a.g.start()) fork = n;
  ASSERT_TRUE(fork.valid());
  // The loop fork controls the body (including itself: it is on its own
  // cyclic path).
  const auto cd_plus = a.cd.iterated(fork);
  EXPECT_TRUE(cd_plus.test(fork.index()));
}

TEST(ControlDeps, IteratedClosureContainsDirectDeps) {
  Analysis a(lang::parse_or_throw(lang::corpus::nested_bypass_source(3)));
  for (NodeId n : a.g.all_nodes()) {
    const auto closure = a.cd.iterated(n);
    for (const ControlDep& d : a.cd.deps(n))
      EXPECT_TRUE(closure.test(d.fork.index()));
  }
}

TEST(ControlDeps, NestedConditionalsChainInClosure) {
  // x := ...; if a { if b { y := 1 } }: y's CD⁺ contains both forks.
  Analysis an(lang::parse_or_throw(
      "var y, a, b; if a != 0 { if b != 0 { y := 1; } }"));
  NodeId inner_assign;
  for (NodeId n : an.g.all_nodes())
    if (an.g.kind(n) == NodeKind::kAssign) inner_assign = n;
  ASSERT_TRUE(inner_assign.valid());
  const auto closure = an.cd.iterated(inner_assign);
  std::size_t forks_in_closure = 0;
  for (NodeId n : an.g.all_nodes())
    if (an.g.kind(n) == NodeKind::kFork && closure.test(n.index()))
      ++forks_in_closure;
  EXPECT_EQ(forks_in_closure, 2u);
}

// Direct CD against the definitional oracle.
class CdOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdOracle, MatchesDefinition4) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.allow_irreducible = true;
  opt.max_toplevel_stmts = 7;
  Analysis a(lang::generate_program(opt, GetParam()));
  for (NodeId n : a.g.all_nodes()) {
    for (NodeId f : a.g.all_nodes()) {
      if (a.g.succs(f).size() < 2) continue;
      const bool expected = testing::naive_control_dependent(a.g, n, f);
      const auto& deps = a.cd.deps(n);
      const bool actual =
          std::any_of(deps.begin(), deps.end(),
                      [&](const ControlDep& d) { return d.fork == f; });
      EXPECT_EQ(actual, expected)
          << "CD(" << n.value() << " on " << f.value() << ") seed "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdOracle,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ctdf::cfg
