#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/pass_manager.hpp"
#include "dfg/passes.hpp"
#include "lang/corpus.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"

namespace ctdf::dfg {
namespace {

OptStats run_cleanup(Graph& g) { return run_passes(g, OptLevel::kCleanup); }

std::size_t total_rewrites(const OptStats& s) {
  return s.switches_folded + s.merges_collapsed + s.dead_removed +
         s.unfireable_removed + s.consts_folded + s.switches_elim +
         s.synchs_narrowed;
}

translate::Translation translation_of(std::string_view src,
                                      bool cleanup = false) {
  auto o = translate::TranslateOptions::schema2_optimized();
  if (cleanup) o.opt_level = dfg::OptLevel::kCleanup;
  return core::Pipeline(o)
      .run(lang::parse_or_throw(std::string(src)))
      .translation;
}

/// The store `tx` leaves, which must be the interpreter's for `src`.
/// The tests rewrite `tx.graph` with the passes after the pipeline has
/// lowered it, so this lowers the graph as it now stands.
void expect_interpreter_store(const translate::Translation& tx,
                              std::string_view src) {
  const auto ref = lang::interpret(lang::parse_or_throw(std::string(src)));
  const auto res = machine::run(machine::lower(tx.graph), tx.memory_cells,
                                {}, tx.istructures, tx.shared_cells);
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.store.cells, ref.store.cells) << src;
}

TEST(Passes, ConstantSwitchIsFolded) {
  const char* src = "var x; if 1 { x := 5; } else { x := 6; }";
  auto tx = translation_of(src);
  const auto before = compute_stats(tx.graph);
  ASSERT_GT(before.switches, 0u);
  const OptStats stats = run_cleanup(tx.graph);
  EXPECT_GT(stats.switches_folded, 0u);
  EXPECT_EQ(compute_stats(tx.graph).switches, 0u);
  EXPECT_TRUE(tx.graph.validate().empty());
  expect_interpreter_store(tx, src);
}

TEST(Passes, UntakenBranchIsRemoved) {
  const char* src = "var x; if 0 { x := 5; } else { x := 6; }";
  auto tx = translation_of(src);
  const auto before = compute_stats(tx.graph);
  const OptStats stats = run_cleanup(tx.graph);
  // The then-branch store can never fire after folding and is removed.
  EXPECT_GT(stats.unfireable_removed, 0u);
  EXPECT_LT(compute_stats(tx.graph).stores, before.stores);
  EXPECT_TRUE(tx.graph.validate().empty());
  expect_interpreter_store(tx, src);
}

TEST(Passes, FoldedProgramStillComputesCorrectly) {
  for (const char* src :
       {"var x; if 1 { x := 5; } else { x := 6; }",
        "var x; if 0 { x := 5; } else { x := 6; }",
        "var x, y; if 1 { if 0 { y := 1; } else { y := 2; } } x := y * 10;"})
    expect_interpreter_store(translation_of(src, /*cleanup=*/true), src);
}

TEST(Passes, IdempotentOnCleanGraphs) {
  const std::string src = lang::corpus::running_example_source();
  auto tx = translation_of(src);
  (void)run_cleanup(tx.graph);
  const auto once = compute_stats(tx.graph);
  const OptStats again = run_cleanup(tx.graph);
  EXPECT_EQ(total_rewrites(again), 0u);
  EXPECT_EQ(again.iterations, 1u);
  const auto twice = compute_stats(tx.graph);
  EXPECT_EQ(once.nodes, twice.nodes);
  EXPECT_EQ(once.arcs, twice.arcs);
  expect_interpreter_store(tx, src);
}

TEST(Passes, PreservesValidityOnCorpus) {
  for (const auto& np : lang::corpus::all()) {
    for (const bool mem_elim : {false, true}) {
      auto o = translate::TranslateOptions::schema2_optimized();
      o.eliminate_memory = mem_elim;
      auto tx =
          core::Pipeline(o).run(lang::parse_or_throw(np.source)).translation;
      (void)run_cleanup(tx.graph);
      EXPECT_TRUE(tx.graph.validate().empty()) << np.name;
      expect_interpreter_store(tx, np.source);
    }
  }
}

TEST(Passes, DeadValueChainsShrinkDrainTraffic) {
  // Under memory elimination the loop's dead y-value chain leaves
  // tokens draining at End; the passes cannot remove live loop wiring,
  // but they must never make things worse.
  auto o = translate::TranslateOptions::schema2_optimized();
  o.eliminate_memory = true;
  auto tx = core::Pipeline(o).run(lang::corpus::running_example()).translation;
  const auto before = compute_stats(tx.graph).nodes;
  (void)run_cleanup(tx.graph);
  EXPECT_LE(compute_stats(tx.graph).nodes, before);
  EXPECT_TRUE(tx.graph.validate().empty());
  expect_interpreter_store(tx, lang::corpus::running_example_source());
}

TEST(Passes, ConstantLoopExitPredicateFoldsTheDeadExit) {
  // Regression: a constant-predicate fork inside a loop makes one loop
  // exit unreachable; folding must remove the orphaned loop-exit node
  // (and its dead downstream) rather than leave unwired ports behind.
  const char* src = R"(
var s, k;
l: s := s + 1;
if 1 then goto cont else goto out;   // the 'out' exit is dead
cont:
k := k + 1;
if k < 4 then goto l else goto out;
out: s := s * 2;
)";
  const auto prog = lang::parse_or_throw(src);
  const auto ref = lang::interpret(prog);
  auto o = translate::TranslateOptions::schema2_optimized();
  o.opt_level = dfg::OptLevel::kCleanup;
  const auto cr = core::Pipeline(o).run(prog);
  EXPECT_TRUE(cr.translation.graph.validate().empty());
  for (const auto mode :
       {machine::LoopMode::kBarrier, machine::LoopMode::kPipelined}) {
    machine::MachineOptions m;
    m.loop_mode = mode;
    const auto res = core::execute(cr.image, m);
    ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
    EXPECT_EQ(res.store.cells, ref.store.cells);
  }
}

TEST(FanoutLowering, BoundsEveryOutPort) {
  auto o = translate::TranslateOptions::schema2_optimized();
  o.eliminate_memory = true;
  auto tx = core::Pipeline(o)
                .run(lang::parse_or_throw(lang::corpus::read_heavy_source(16)))
                .translation;
  ASSERT_GT(max_fanout(tx.graph), 2u);  // wide broadcasts exist
  const std::size_t inserted = lower_fanout(tx.graph, 2);
  EXPECT_GT(inserted, 0u);
  EXPECT_LE(max_fanout(tx.graph), 2u);
  EXPECT_TRUE(tx.graph.validate().empty());
}

TEST(FanoutLowering, NoOpWhenAlreadyBounded) {
  auto tx = translation_of("var x; x := 1;");
  const std::size_t before = tx.graph.num_nodes();
  const std::size_t cap = std::max<std::size_t>(2, max_fanout(tx.graph));
  EXPECT_EQ(lower_fanout(tx.graph, cap), 0u);
  EXPECT_EQ(tx.graph.num_nodes(), before);
}

TEST(FanoutLowering, LoweredGraphStillComputesCorrectly) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    const auto ref = lang::interpret(prog);
    auto o = translate::TranslateOptions::schema2_optimized();
    o.max_fanout = 2;
    const auto cr = core::Pipeline(o).run(prog);
    EXPECT_LE(max_fanout(cr.translation.graph), 2u) << np.name;
    EXPECT_TRUE(cr.translation.graph.validate().empty()) << np.name;
    const auto res = core::execute(cr.image, {});
    ASSERT_TRUE(res.stats.completed)
        << np.name << ": " << res.stats.error_detail.render();
    EXPECT_EQ(res.store.cells, ref.store.cells) << np.name;
  }
}

TEST(PostOptimizeOption, ReportedInTranslation) {
  const char* src = "var x; if 1 { x := 5; } else { x := 6; }";
  const auto plain = translation_of(src, false);
  const auto opt = translation_of(src, true);
  EXPECT_EQ(plain.post_opt_removed, 0u);
  EXPECT_GT(opt.post_opt_removed, 0u);
  EXPECT_LT(opt.graph.num_nodes(), plain.graph.num_nodes());
}

}  // namespace
}  // namespace ctdf::dfg
