// Structural properties of the translated dataflow graphs: the shapes
// the paper's figures promise (Schema 1 vs 2 vs optimized vs covers).
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "translate/stages.hpp"

namespace ctdf::translate {
namespace {

Translation tx(std::string_view src, const TranslateOptions& o) {
  return core::Pipeline(o)
      .run(lang::parse_or_throw(std::string(src)))
      .translation;
}

TEST(Structure, AllTranslationsValidate) {
  for (const auto& np : lang::corpus::all()) {
    for (const auto& o :
         {TranslateOptions::schema1(), TranslateOptions::schema2(),
          TranslateOptions::schema2_optimized(),
          TranslateOptions::schema3(CoverStrategy::kAliasClass),
          TranslateOptions::schema3(CoverStrategy::kUnified)}) {
      const Translation t = tx(np.source, o);
      EXPECT_TRUE(t.graph.validate().empty())
          << np.name << " under " << o.describe();
    }
  }
}

TEST(Structure, Schema1HasSingleResource) {
  const Translation t =
      tx(lang::corpus::running_example_source(), TranslateOptions::schema1());
  EXPECT_EQ(t.num_resources, 1u);
  // The single token is switched at the one fork.
  EXPECT_EQ(compute_stats(t.graph).switches, 1u);
}

TEST(Structure, Schema2HasPerVariableResources) {
  const Translation t =
      tx(lang::corpus::running_example_source(), TranslateOptions::schema2());
  EXPECT_EQ(t.num_resources, 2u);  // x and y
  // Both tokens switched at the fork (Fig. 8).
  EXPECT_EQ(compute_stats(t.graph).switches, 2u);
}

TEST(Structure, Fig9OptimizationRemovesTheRedundantSwitch) {
  const Translation base =
      tx(lang::corpus::fig9_source(), TranslateOptions::schema2());
  const Translation opt = tx(lang::corpus::fig9_source(),
                             TranslateOptions::schema2_optimized());
  const auto sb = compute_stats(base.graph);
  const auto so = compute_stats(opt.graph);
  // Naive: 3 variables switched at the fork. Optimized: only y.
  EXPECT_EQ(sb.switches, 3u);
  EXPECT_EQ(so.switches, 1u);
  EXPECT_LT(so.merges, sb.merges);
}

TEST(Structure, NestedBypassSwitchCountIndependentOfDepth) {
  // Under Schema 2 the x-token crosses every nested conditional; the
  // optimized construction bypasses all of them, so its switch count
  // stays flat while the naive count grows with depth.
  std::size_t prev_base = 0;
  for (const int depth : {1, 4, 8}) {
    const auto src = lang::corpus::nested_bypass_source(depth);
    const auto base = compute_stats(
        tx(src, TranslateOptions::schema2()).graph);
    const auto opt = compute_stats(
        tx(src, TranslateOptions::schema2_optimized()).graph);
    EXPECT_GT(base.switches, prev_base);
    prev_base = base.switches;
    // Optimized: only y and w are ever switched; x never.
    EXPECT_LE(opt.switches, static_cast<std::size_t>(2 * depth));
    EXPECT_LT(opt.switches, base.switches);
  }
}

TEST(Structure, GraphSizeIsEdgesTimesVariablesUnderSchema2) {
  // Section 3: |arcs| = O(E · V). Doubling the variable count under the
  // naive schema roughly doubles the dummy-arc count.
  const auto arcs_for = [&](int vars) {
    const auto src = lang::corpus::independent_chains_source(vars, 2);
    return compute_stats(tx(src, TranslateOptions::schema2()).graph)
        .dummy_arcs;
  };
  const auto a4 = arcs_for(4);
  const auto a8 = arcs_for(8);
  EXPECT_GT(a8, a4 * 3 / 2);
}

TEST(Structure, UnifiedCoverCollectsOneTokenPerOp) {
  // Under the unified cover every op collects exactly one access token,
  // so no access-set synch trees are needed for scalar code.
  const Translation t =
      tx(lang::corpus::fortran_alias_source(),
         TranslateOptions::schema3(CoverStrategy::kUnified));
  EXPECT_EQ(t.num_resources, 1u);
}

TEST(Structure, SingletonCoverUnderAliasingBuildsAccessSetSynchs) {
  // [z] = {x,y,z}: an op on z collects three tokens → synch trees appear.
  const Translation t =
      tx(lang::corpus::fortran_alias_source(),
         TranslateOptions::schema3(CoverStrategy::kSingleton));
  EXPECT_EQ(t.num_resources, 5u);  // x, y, z, u, v
  EXPECT_GT(compute_stats(t.graph).synchs, 0u);
}

TEST(Structure, MemoryEliminationRemovesScalarTraffic) {
  auto o = TranslateOptions::schema2_optimized();
  o.eliminate_memory = true;
  const Translation base = tx(lang::corpus::running_example_source(),
                              TranslateOptions::schema2_optimized());
  const Translation elim = tx(lang::corpus::running_example_source(), o);
  const auto sb = compute_stats(base.graph);
  const auto se = compute_stats(elim.graph);
  EXPECT_EQ(se.loads, 0u);
  // Only the end-of-program writeback stores remain (one per variable).
  EXPECT_EQ(se.stores, 2u);
  EXPECT_GT(sb.loads, 0u);
}

TEST(Structure, LoopTransformStatsExposed) {
  const Translation t = tx(lang::corpus::running_example_source(),
                           TranslateOptions::schema2());
  EXPECT_EQ(t.loops, 1u);
  EXPECT_EQ(t.nodes_split, 0);
  const Translation irr = tx(lang::corpus::irreducible_source(),
                             TranslateOptions::schema2());
  EXPECT_GT(irr.nodes_split, 0);
}

TEST(Structure, SequentialSkipsLoopTransform) {
  const Translation t = tx(lang::corpus::running_example_source(),
                           TranslateOptions::schema1());
  EXPECT_EQ(t.loops, 0u);
  for (dfg::NodeId n : t.graph.all_nodes()) {
    EXPECT_NE(t.graph.node(n).kind, dfg::OpKind::kLoopEntry);
    EXPECT_NE(t.graph.node(n).kind, dfg::OpKind::kLoopExit);
  }
}

TEST(Structure, Fig14MarksQualifyingLoop) {
  auto o = TranslateOptions::schema2_optimized();
  o.parallel_store_arrays = {"x"};
  const Translation t = tx(lang::corpus::array_loop_source(10), o);
  EXPECT_EQ(t.loops_store_parallelized, 1u);
}

TEST(Structure, Fig14RejectsLoopThatReadsTheArray) {
  auto o = TranslateOptions::schema2_optimized();
  o.parallel_store_arrays = {"x"};
  const Translation t = tx(R"(
var i; array x[12];
l: i := i + 1; x[i] := x[i - 1] + 1;
if i < 10 then goto l else goto end;
)",
                           o);
  EXPECT_EQ(t.loops_store_parallelized, 0u);
}

TEST(Structure, Fig14RejectsNonInductionSubscript) {
  auto o = TranslateOptions::schema2_optimized();
  o.parallel_store_arrays = {"x"};
  const Translation t = tx(R"(
var i, j; array x[12];
l: i := i + 1; j := i * i; x[j] := 1;
if i < 10 then goto l else goto end;
)",
                           o);
  EXPECT_EQ(t.loops_store_parallelized, 0u);
}

TEST(Structure, IStructureRegionsExported) {
  auto o = TranslateOptions::schema2_optimized();
  o.istructure_arrays = {"x"};
  const Translation t = tx(lang::corpus::array_loop_source(10), o);
  ASSERT_EQ(t.istructures.size(), 1u);
  EXPECT_EQ(t.istructures.front().extent, 11u);
  const auto stats = compute_stats(t.graph);
  EXPECT_GT(stats.stores, 0u);
}

TEST(Structure, AliasedArrayCannotBeIStructure) {
  auto o = TranslateOptions::schema2_optimized();
  o.istructure_arrays = {"x"};
  support::DiagnosticEngine d;
  const auto p = lang::parse_or_throw(
      "var i; array x[4], y[4]; alias x y; x[i] := 1;");
  const Translation t = run_stages(p, o, d);
  EXPECT_TRUE(t.istructures.empty());
  EXPECT_FALSE(d.has_errors());  // warning, not error
}

}  // namespace
}  // namespace ctdf::translate
