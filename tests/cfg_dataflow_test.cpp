#include <gtest/gtest.h>

#include <vector>

#include "cfg/build.hpp"
#include "cfg/dataflow.hpp"
#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"

namespace ctdf::cfg {
namespace {

struct Fixture {
  lang::Program prog;
  Graph g;

  explicit Fixture(std::string_view src)
      : prog(lang::parse_or_throw(src)), g(build_cfg_or_throw(prog)) {}

  lang::VarId var(const char* n) const { return *prog.symbols.lookup(n); }

  NodeId assign_to(const char* n, int which = 0) const {
    const lang::VarId v = var(n);
    int seen = 0;
    for (NodeId node : g.all_nodes()) {
      if (g.kind(node) == NodeKind::kAssign && g.node(node).lhs->var == v) {
        if (seen++ == which) return node;
      }
    }
    return NodeId::invalid();
  }
};

/// Oracle: v is live at entry of n iff some path from n reaches a use
/// of v (or `end`) without first passing a strong definition of v.
/// (A node's own uses happen before its own definition.)
bool naive_live_in(const Fixture& f, NodeId start, lang::VarId v) {
  const UseDef ud(f.g, f.prog.symbols);
  std::vector<bool> seen(f.g.size(), false);
  std::vector<NodeId> stack{start};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (seen[n.index()]) continue;
    seen[n.index()] = true;
    if (ud.use[n].test(v.index())) return true;
    if (n == f.g.end()) return true;  // the final store is observable
    if (ud.def[n].test(v.index())) continue;  // strongly killed
    for (NodeId s : f.g.succs(n)) stack.push_back(s);
  }
  return false;
}

TEST(Liveness, EverythingLiveAtEnd) {
  Fixture f("var a, b; a := 1;");
  const Liveness live(f.g, f.prog.symbols);
  for (auto v : f.prog.symbols.all_vars())
    EXPECT_TRUE(live.live_in(f.g.end()).test(v.index()));
}

TEST(Liveness, OverwrittenValueIsDeadBetweenStores) {
  Fixture f("var x, y; x := 1; y := 2; x := 3;");
  const Liveness live(f.g, f.prog.symbols);
  const NodeId first_x = f.assign_to("x", 0);
  // x is not live out of its first assignment (rewritten before any
  // read and before end).
  EXPECT_FALSE(live.live_out(first_x).test(f.var("x").index()));
  // y IS live out of its assignment (end observes it).
  EXPECT_TRUE(live.live_out(f.assign_to("y")).test(f.var("y").index()));
}

TEST(Liveness, ReadInOneBranchKeepsValueLive) {
  Fixture f("var x, w, s; x := 1; if w { s := x; } x := 2;");
  const Liveness live(f.g, f.prog.symbols);
  EXPECT_TRUE(live.live_out(f.assign_to("x", 0)).test(f.var("x").index()));
}

TEST(Liveness, AliasedWritesAreWeak) {
  // x ~ y: the second write may go to a different location, so the
  // first x value stays live (reachable through y... conservatively).
  Fixture f("var x, y; alias x y; x := 1; x := 2;");
  const Liveness live(f.g, f.prog.symbols);
  EXPECT_TRUE(live.live_out(f.assign_to("x", 0)).test(f.var("x").index()));
}

TEST(Liveness, MatchesOracleOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    lang::GeneratorOptions opt;
    opt.allow_unstructured = true;
    opt.max_toplevel_stmts = 8;
    const auto prog = lang::generate_program(opt, seed);
    Fixture f(prog.to_string());
    const Liveness live(f.g, f.prog.symbols);
    for (NodeId n : f.g.all_nodes()) {
      for (auto v : f.prog.symbols.all_vars()) {
        EXPECT_EQ(live.live_in(n).test(v.index()), naive_live_in(f, n, v))
            << "seed " << seed << " node " << n.value() << " var "
            << f.prog.symbols.name(v);
      }
    }
  }
}

TEST(DeadStoreElim, RemovesOverwrittenStores) {
  Fixture f("var x, y; x := 1; y := 2; x := 3;");
  const std::size_t removed = eliminate_dead_stores(f.g, f.prog.symbols);
  EXPECT_EQ(removed, 1u);
  EXPECT_TRUE(f.g.validate().empty());
}

TEST(DeadStoreElim, CascadesThroughChains) {
  Fixture f("var x; x := 1; x := 2; x := 3;");
  EXPECT_EQ(eliminate_dead_stores(f.g, f.prog.symbols), 2u);
}

TEST(DeadStoreElim, KeepsObservableAndBranchReadStores) {
  Fixture f("var x, w, s; x := 1; if w { s := x; } x := 2;");
  EXPECT_EQ(eliminate_dead_stores(f.g, f.prog.symbols), 0u);
}

TEST(DeadStoreElim, NeverTouchesAliasedOrArrayStores) {
  Fixture f(R"(
var x, y; array a[4];
alias x y;
x := 1; x := 2;
a[0] := 1; a[0] := 2;
)");
  EXPECT_EQ(eliminate_dead_stores(f.g, f.prog.symbols), 0u);
}

TEST(DeadStoreElim, EndToEndSemanticsPreserved) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    lang::GeneratorOptions gopt;
    gopt.allow_unstructured = true;
    gopt.num_arrays = 1;
    const auto prog = lang::generate_program(gopt, seed);
    const auto ref = lang::interpret(prog, 1'000'000);
    ASSERT_TRUE(ref.completed);
    auto topt = translate::TranslateOptions::schema2_optimized();
    topt.dead_store_elimination = true;
    const auto cr = core::Pipeline(topt).run(prog);
    const auto res = core::execute(cr.image, {});
    ASSERT_TRUE(res.stats.completed) << "seed " << seed << ": "
                                     << res.stats.error_detail.render();
    EXPECT_EQ(res.store.cells, ref.store.cells) << "seed " << seed;
  }
}

TEST(DeadStoreElim, ShrinksTheDataflowGraph) {
  const auto prog = lang::parse_or_throw(
      "var x, y; x := 7; x := x * 0 + 1; y := 2; y := 3; y := y + x;");
  auto base = translate::TranslateOptions::schema2_optimized();
  auto dse = base;
  dse.dead_store_elimination = true;
  const auto t0 = core::Pipeline(base).run(prog).translation;
  const auto t1 = core::Pipeline(dse).run(prog).translation;
  EXPECT_GT(t1.dead_stores_removed, 0u);
  EXPECT_LT(t1.graph.num_nodes(), t0.graph.num_nodes());
}

}  // namespace
}  // namespace ctdf::cfg
