// Unit tests for the optimization pass manager (dfg/pass_manager.hpp):
// macro-op fusion on hand-built chains, the cleanup passes (each test
// checks that its own pass's counter accounts for every rewrite), the
// replicate-tree regression, and the fused-vs-unfused differential
// over the corpus.
#include <gtest/gtest.h>

#include <string>

#include "core/compiler.hpp"
#include "dfg/pass_manager.hpp"
#include "dfg/passes.hpp"
#include "lang/corpus.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"

namespace ctdf::dfg {
namespace {

NodeId add_start(Graph& g, std::vector<std::int64_t> values) {
  Node s;
  s.kind = OpKind::kStart;
  s.num_outputs = static_cast<std::uint16_t>(values.size());
  s.start_values = std::move(values);
  const NodeId n = g.add(std::move(s));
  g.set_start(n);
  return n;
}

NodeId add_end(Graph& g, std::uint16_t inputs) {
  Node e;
  e.kind = OpKind::kEnd;
  e.num_inputs = inputs;
  const NodeId n = g.add(std::move(e));
  g.set_end(n);
  return n;
}

/// Every cleanup rewrite, whichever pass made it.
std::size_t total_rewrites(const OptStats& s) {
  return s.switches_folded + s.merges_collapsed + s.dead_removed +
         s.unfireable_removed + s.consts_folded + s.switches_elim +
         s.synchs_narrowed;
}

std::size_t count_kind(const Graph& g, OpKind k) {
  std::size_t n = 0;
  for (const NodeId id : g.all_nodes())
    if (g.node(id).kind == k) ++n;
  return n;
}

/// start(seed) → add+1 → neg → (20 − v) → store[0] → end. Three pure
/// ops, every non-chain input literal, single consumers throughout.
Graph chain_graph(std::int64_t seed) {
  Graph g;
  const NodeId s = add_start(g, {seed});
  const NodeId b1 = g.add_binop(lang::BinOp::kAdd, "b1");
  g.connect({s, 0}, {b1, 0}, false);
  g.bind_literal({b1, 1}, 1);
  const NodeId b2 = g.add_unop(lang::UnOp::kNeg, "b2");
  g.connect({b1, 0}, {b2, 0}, false);
  const NodeId b3 = g.add_binop(lang::BinOp::kSub, "b3");
  g.bind_literal({b3, 0}, 20);  // literal on the *left*: tests value_port=1
  g.connect({b2, 0}, {b3, 1}, false);
  const NodeId st = g.add_store(0, "out");
  g.connect({b3, 0}, {st, 0}, false);
  g.connect({b3, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  return g;
}

TEST(Fusion, CollapsesALinearChainIntoOneMacro) {
  Graph g = chain_graph(5);
  ASSERT_TRUE(g.validate().empty());
  const std::size_t before = g.num_nodes();

  const OptStats stats = run_passes(g, OptLevel::kAll);
  EXPECT_EQ(total_rewrites(stats), 0u);
  EXPECT_EQ(stats.chains_fused, 1u);
  EXPECT_EQ(stats.ops_fused, 2u);
  EXPECT_EQ(stats.fused_len_hist[1], 1u);  // one chain of 3 ops
  EXPECT_EQ(stats.nodes_removed, 2u);
  EXPECT_EQ(g.num_nodes(), before - 2);
  EXPECT_EQ(count_kind(g, OpKind::kMacro), 1u);
  ASSERT_TRUE(g.validate().empty());

  // ((5 + 1) negated) = -6; 20 - (-6) = 26.
  const auto r = machine::run(machine::lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 26);
}

/// start(5) → `ops` times (+1) → store[0] → end.
Graph add_chain(std::size_t ops) {
  Graph g;
  const NodeId s = add_start(g, {5});
  NodeId prev = s;
  for (std::size_t i = 0; i < ops; ++i) {
    const NodeId b = g.add_binop(lang::BinOp::kAdd);
    g.connect({prev, 0}, {b, 0}, false);
    g.bind_literal({b, 1}, 1);
    prev = b;
  }
  const NodeId st = g.add_store(0, "out");
  g.connect({prev, 0}, {st, 0}, false);
  g.connect({prev, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  return g;
}

TEST(Fusion, ChainsLongerThanTheLimitSplitIntoMacros) {
  constexpr std::size_t kOps = 2 * kFuseLimit + 3;
  const Graph unfused = add_chain(kOps);
  ASSERT_TRUE(unfused.validate().empty());
  Graph g = add_chain(kOps);

  const OptStats stats = run_passes(g, OptLevel::kAll);
  // Two full macros of kFuseLimit ops, then one of the 3 left over.
  EXPECT_EQ(stats.chains_fused, 3u);
  EXPECT_EQ(stats.ops_fused, kOps - 3);
  EXPECT_EQ(stats.fused_len_hist[kFuseLimit - 2], 2u);
  EXPECT_EQ(stats.fused_len_hist[1], 1u);
  EXPECT_EQ(count_kind(g, OpKind::kMacro), 3u);
  EXPECT_EQ(count_kind(g, OpKind::kBinOp), 0u);
  ASSERT_TRUE(g.validate().empty());

  const auto want = machine::run(machine::lower(unfused), 1, {});
  const auto got = machine::run(machine::lower(g), 1, {});
  ASSERT_TRUE(want.stats.completed) << want.stats.error_detail.render();
  ASSERT_TRUE(got.stats.completed) << got.stats.error_detail.render();
  EXPECT_EQ(want.store.cells[0], static_cast<std::int64_t>(5 + kOps));
  EXPECT_EQ(got.store.cells, want.store.cells);
}

TEST(Fusion, MacroNodesSurviveLowering) {
  Graph g = chain_graph(5);
  (void)run_passes(g, OptLevel::kAll);
  ASSERT_EQ(count_kind(g, OpKind::kMacro), 1u);

  // The lowered op table exposes the head kind and step count.
  const machine::ExecProgram exec = machine::lower(g);
  const std::string rendered = machine::render(exec);
  EXPECT_NE(rendered.find("head="), std::string::npos);
  EXPECT_NE(rendered.find("steps=2"), std::string::npos);

  const auto r = machine::run(exec, 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 26);
}

TEST(ConstFold, IdentityOperatorsAreBypassed) {
  Graph g;
  const NodeId s = add_start(g, {7});
  const NodeId b = g.add_binop(lang::BinOp::kAdd, "x+0");
  g.connect({s, 0}, {b, 0}, false);
  g.bind_literal({b, 1}, 0);
  const NodeId st = g.add_store(0, "out");
  g.connect({b, 0}, {st, 0}, false);
  g.connect({b, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  const std::size_t before = g.num_nodes();

  const OptStats stats = run_passes(g, OptLevel::kCleanup);
  EXPECT_EQ(stats.consts_folded, 1u);
  EXPECT_EQ(total_rewrites(stats), stats.consts_folded);
  EXPECT_EQ(g.num_nodes(), before - 1);
  ASSERT_TRUE(g.validate().empty());

  const auto r = machine::run(machine::lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 7);
}

TEST(ConstFold, AbsorbersStillConsumeTheLiveToken) {
  // x * 0 rewrites to a Gate materializing 0 — the x token must still
  // be consumed (it may carry an ordering obligation), so the node
  // stays, just cheaper.
  Graph g;
  const NodeId s = add_start(g, {7});
  const NodeId b = g.add_binop(lang::BinOp::kMul, "x*0");
  g.connect({s, 0}, {b, 0}, false);
  g.bind_literal({b, 1}, 0);
  const NodeId st = g.add_store(0, "out");
  g.connect({b, 0}, {st, 0}, false);
  g.connect({b, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  const std::size_t before = g.num_nodes();

  const OptStats stats = run_passes(g, OptLevel::kCleanup);
  EXPECT_EQ(stats.consts_folded, 1u);
  EXPECT_EQ(total_rewrites(stats), stats.consts_folded);
  EXPECT_EQ(g.num_nodes(), before);  // rewritten in place, not removed
  EXPECT_EQ(count_kind(g, OpKind::kGate), 1u);
  ASSERT_TRUE(g.validate().empty());

  const auto r = machine::run(machine::lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 0);
}

TEST(SynchNarrow, SynchFeedingOnlyASynchMergesIntoIt) {
  // start → synch a (one literal operand) → synch b → the access token
  // of a store of 7.
  Graph g;
  const NodeId s = add_start(g, {1, 2, 7});
  const NodeId a = g.add_synch(2, "a");
  g.connect({s, 0}, {a, 0}, true);
  g.bind_literal({a, 1}, 5);  // literal operand: dropped by narrowing
  const NodeId b = g.add_synch(2, "b");
  g.connect({a, 0}, {b, 0}, true);
  g.connect({s, 1}, {b, 1}, true);
  const NodeId st = g.add_store(0, "out");
  g.connect({s, 2}, {st, 0}, false);
  g.connect({b, 0}, {st, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  ASSERT_TRUE(g.validate().empty());

  const OptStats stats = run_passes(g, OptLevel::kCleanup);
  EXPECT_GE(stats.synchs_narrowed, 2u);  // literal drop + tree merge
  EXPECT_EQ(total_rewrites(stats), stats.synchs_narrowed);
  EXPECT_EQ(count_kind(g, OpKind::kSynch), 1u);
  ASSERT_TRUE(g.validate().empty());

  const auto r = machine::run(machine::lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 7);
}

TEST(PassManager, ReplicateTreesAreNeverRecollapsed) {
  // Regression for the pass-ordering hazard: lower_fanout's replication
  // trees are single-source merges by construction; running the cleanup
  // passes afterwards must not collapse them back into unbounded
  // fan-out.
  auto o = translate::TranslateOptions::schema2_optimized();
  o.eliminate_memory = true;
  auto tx = core::Pipeline(o)
                .run(lang::parse_or_throw(lang::corpus::read_heavy_source(16)))
                .translation;
  ASSERT_GT(max_fanout(tx.graph), 2u);
  ASSERT_GT(lower_fanout(tx.graph, 2), 0u);
  ASSERT_LE(max_fanout(tx.graph), 2u);

  const OptStats stats = run_passes(tx.graph, OptLevel::kCleanup);
  EXPECT_LE(max_fanout(tx.graph), 2u)
      << "collapse-merge folded a replicate tree (" << stats.merges_collapsed
      << " merges collapsed)";
  ASSERT_TRUE(tx.graph.validate().empty());

  const auto prog = lang::parse_or_throw(lang::corpus::read_heavy_source(16));
  const auto ref = lang::interpret(prog);
  const auto res =
      machine::run(machine::lower(tx.graph), tx.memory_cells, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.store.cells, ref.store.cells);
}

TEST(PassManager, PerPassCountersAttributeTheWork) {
  auto tx = core::Pipeline(translate::TranslateOptions::schema2_optimized())
                .run(lang::parse_or_throw(
                    "var x; if 1 { x := 5; } else { x := 6; }"))
                .translation;
  const OptStats stats = run_passes(tx.graph, OptLevel::kAll);
  EXPECT_GT(stats.switches_folded, 0u);
  EXPECT_GT(stats.nodes_removed, 0u);
  EXPECT_GE(stats.iterations, 1u);
  ASSERT_TRUE(tx.graph.validate().empty());
}

TEST(PassManager, LoopDepthIsReportedForLoopPrograms) {
  auto tx = core::Pipeline(translate::TranslateOptions::schema2_optimized())
                .run(lang::corpus::running_example())
                .translation;
  const OptStats stats = run_passes(tx.graph, OptLevel::kCleanup);
  EXPECT_GE(stats.max_loop_depth, 1u);
}

TEST(PassManager, FusedAndUnfusedStoresAreByteIdentical) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    const auto ref = lang::interpret(prog);
    for (const bool mem_elim : {false, true}) {
      auto off = translate::TranslateOptions::schema2_optimized();
      off.eliminate_memory = mem_elim;
      auto on = off;
      on.opt_level = OptLevel::kAll;
      const auto cr_off = core::Pipeline(off).run(prog);
      const auto cr_on = core::Pipeline(on).run(prog);
      ASSERT_TRUE(cr_on.translation.graph.validate().empty()) << np.name;
      const auto r_off = core::execute(cr_off.image, {});
      const auto r_on = core::execute(cr_on.image, {});
      ASSERT_TRUE(r_off.stats.completed) << np.name << ": "
                                         << r_off.stats.error_detail.render();
      ASSERT_TRUE(r_on.stats.completed) << np.name << ": "
                                        << r_on.stats.error_detail.render();
      EXPECT_EQ(r_on.store.cells, r_off.store.cells) << np.name;
      EXPECT_EQ(r_on.store.cells, ref.store.cells) << np.name;
    }
  }
}

}  // namespace
}  // namespace ctdf::dfg
