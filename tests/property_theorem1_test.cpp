// Theorem 1 of the paper, checked as an executable property on random
// CFGs: N is between F and ipostdom(F)  ⟺  F ∈ CD⁺(N).
//
// "Between" is checked by brute-force path search (Definition 1);
// CD⁺ is computed by the production control-dependence machinery.
#include <gtest/gtest.h>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dominance.hpp"
#include "cfg/intervals.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "support/oracles.hpp"

namespace ctdf::cfg {
namespace {

void check_theorem1(const Graph& g, const std::string& context) {
  const DomTree pdom(g, DomDirection::kPostdom);
  const ControlDeps cd(g, pdom);
  for (NodeId n : g.all_nodes()) {
    const auto cd_plus = cd.iterated(n);
    for (NodeId f : g.all_nodes()) {
      if (g.succs(f).size() < 2) continue;  // only forks can appear
      const bool lhs = testing::naive_between(g, f, pdom.idom(f), n);
      const bool rhs = cd_plus.test(f.index());
      EXPECT_EQ(lhs, rhs) << context << ": N=" << n.value()
                          << " F=" << f.value() << " (between=" << lhs
                          << ", CD+=" << rhs << ")";
    }
  }
}

TEST(Theorem1, HoldsOnCorpus) {
  for (const auto& np : lang::corpus::all()) {
    const lang::Program prog = lang::parse_or_throw(np.source);
    const Graph g = build_cfg_or_throw(prog);
    check_theorem1(g, np.name);
  }
}

TEST(Theorem1, IteratedSetAgreesWithNaiveClosure) {
  for (const auto& np : lang::corpus::all()) {
    const lang::Program prog = lang::parse_or_throw(np.source);
    const Graph g = build_cfg_or_throw(prog);
    const DomTree pdom(g, DomDirection::kPostdom);
    const ControlDeps cd(g, pdom);
    for (NodeId n : g.all_nodes()) {
      const auto fast = cd.iterated(n);
      const auto slow = testing::naive_cd_plus(g, n);
      std::size_t slow_count = 0;
      for (NodeId f : slow) {
        EXPECT_TRUE(fast.test(f.index()))
            << np.name << " missing " << f.value() << " in CD+ of "
            << n.value();
        ++slow_count;
      }
      EXPECT_EQ(fast.count(), slow_count) << np.name << " node " << n.value();
    }
  }
}

class Theorem1Random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Random, HoldsOnRandomUnstructuredPrograms) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.allow_irreducible = true;
  opt.max_toplevel_stmts = 9;
  const auto prog = lang::generate_program(opt, GetParam());
  const Graph g = build_cfg_or_throw(prog);
  check_theorem1(g, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Random,
                         ::testing::Range<std::uint64_t>(0, 20));

// Also validate on the loop-transformed graphs the translator actually
// consumes (loop entry/exit nodes participate in control dependence).
class Theorem1Transformed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Transformed, HoldsAfterLoopTransform) {
  lang::GeneratorOptions opt;
  opt.allow_unstructured = true;
  opt.max_toplevel_stmts = 7;
  const auto prog = lang::generate_program(opt, GetParam());
  Graph g = build_cfg_or_throw(prog);
  support::DiagnosticEngine d;
  (void)transform_loops(g, d);
  ASSERT_FALSE(d.has_errors());
  check_theorem1(g, "transformed seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Transformed,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ctdf::cfg
