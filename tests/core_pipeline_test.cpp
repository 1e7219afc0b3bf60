// core::Pipeline: staged compilation with per-stage trace, dumps, and
// the lowered image. The golden-trace tests pin the stage
// sequence and the deterministic per-stage statistics (node counts,
// removal counts) for three corpus programs; any change to stage
// behavior must update them consciously.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "lang/corpus.hpp"
#include "machine/exec.hpp"
#include "support/diagnostics.hpp"
#include "translate/stages.hpp"

namespace ctdf {
namespace {

using core::Pipeline;
using core::PipelineOptions;
using core::Stage;

translate::TranslateOptions full_stack() {
  auto t = translate::TranslateOptions::schema2_optimized();
  t.eliminate_memory = true;
  t.dead_store_elimination = true;
  t.opt_level = dfg::OptLevel::kCleanup;
  return t;
}

PipelineOptions full_stack_with_ssa() {
  PipelineOptions po(full_stack());
  po.compute_ssa = true;
  return po;
}

TEST(Pipeline, TraceListsEveryStageInOrder) {
  const auto r = Pipeline(full_stack_with_ssa())
                     .run(lang::corpus::running_example_source());
  ASSERT_EQ(r.trace.stages.size(), translate::kNumStages);
  for (std::size_t i = 0; i < translate::kNumStages; ++i)
    EXPECT_EQ(r.trace.stages[i].stage, static_cast<Stage>(i)) << i;
  // Ran stages carry wall time; the total covers them.
  const auto* tr = r.trace.find(Stage::kTranslate);
  ASSERT_NE(tr, nullptr);
  EXPECT_TRUE(tr->ran);
  EXPECT_GT(tr->nanos, 0);
  EXPECT_GE(r.trace.total_nanos(), tr->nanos);
  // Disabled stages are reported as skipped, not dropped.
  const auto* fl = r.trace.find(Stage::kFanout);
  ASSERT_NE(fl, nullptr);
  EXPECT_FALSE(fl->ran);
  // Counter lookup by name; absent names return -1.
  EXPECT_EQ(tr->counter("nodes"),
            static_cast<std::int64_t>(r.translation.graph.num_nodes()));
  EXPECT_EQ(tr->counter("no-such-counter"), -1);
}

TEST(Pipeline, GoldenTraceRunningExample) {
  const auto r = Pipeline(full_stack_with_ssa())
                     .run(lang::corpus::running_example_source());
  EXPECT_EQ(r.trace.summary(),
            "parse: 119 -> 3 stmts=3 vars=2\n"
            "cfg-build: 0 -> 7 nodes=7 edges=8\n"
            "dse: 7 -> 7 removed=0\n"
            "loop-transform: 7 -> 9 loops=1 nodes-split=0\n"
            "cover: 0 -> 2 resources=2 eliminated=2 istructures=0 "
            "fig14-loops=0\n"
            "ssa: 9 -> 9 phis-minimal=4 phis-pruned=3\n"
            "dominance: 9 -> 9\n"
            "control-dep: 9 -> 9 deps=12\n"
            "switch-place: 9 -> 9 switches=2 rounds=1\n"
            "translate: 9 -> 11 nodes=11 arcs=19\n"
            "optimize: 11 -> 11 removed=0 switches-folded=0 "
            "merges-collapsed=0 dead=0 unfireable=0 const-folded=0 "
            "switch-elim=0 synch-narrowed=0 iterations=1 max-loop-depth=1\n"
            "fanout: skipped\n"
            "validate: 11 -> 11 problems=0\n"
            "lower: 11 -> 11 ops=11 dests=19 frame-slots=18 literals=3\n");
}

TEST(Pipeline, GoldenTraceFig9) {
  const auto r =
      Pipeline(full_stack_with_ssa()).run(lang::corpus::fig9_source());
  EXPECT_EQ(r.trace.summary(),
            "parse: 248 -> 7 stmts=7 vars=3\n"
            "cfg-build: 0 -> 11 nodes=11 edges=12\n"
            "dse: 11 -> 11 removed=1\n"
            "loop-transform: 11 -> 11 loops=0 nodes-split=0\n"
            "cover: 0 -> 3 resources=3 eliminated=3 istructures=0 "
            "fig14-loops=0\n"
            "ssa: 11 -> 11 phis-minimal=3 phis-pruned=3\n"
            "dominance: 11 -> 11\n"
            "control-dep: 11 -> 11 deps=9\n"
            "switch-place: 11 -> 11 switches=1 rounds=1\n"
            "translate: 11 -> 11 nodes=11 arcs=17\n"
            "optimize: 11 -> 11 removed=0 switches-folded=0 "
            "merges-collapsed=0 dead=0 unfireable=0 const-folded=0 "
            "switch-elim=0 synch-narrowed=0 iterations=1 max-loop-depth=0\n"
            "fanout: skipped\n"
            "validate: 11 -> 11 problems=0\n"
            "lower: 11 -> 11 ops=11 dests=17 frame-slots=19 literals=4\n");
}

TEST(Pipeline, GoldenTraceArrayLoop) {
  const auto r = Pipeline(full_stack_with_ssa())
                     .run(lang::corpus::array_loop_source(10));
  EXPECT_EQ(r.trace.summary(),
            "parse: 156 -> 3 stmts=3 vars=2\n"
            "cfg-build: 0 -> 7 nodes=7 edges=8\n"
            "dse: 7 -> 7 removed=0\n"
            "loop-transform: 7 -> 9 loops=1 nodes-split=0\n"
            "cover: 0 -> 2 resources=2 eliminated=1 istructures=0 "
            "fig14-loops=0\n"
            "ssa: 9 -> 9 phis-minimal=4 phis-pruned=4\n"
            "dominance: 9 -> 9\n"
            "control-dep: 9 -> 9 deps=12\n"
            "switch-place: 9 -> 9 switches=2 rounds=1\n"
            "translate: 9 -> 10 nodes=10 arcs=18\n"
            "optimize: 10 -> 10 removed=0 switches-folded=0 "
            "merges-collapsed=0 dead=0 unfireable=0 const-folded=0 "
            "switch-elim=0 synch-narrowed=0 iterations=1 max-loop-depth=1\n"
            "fanout: skipped\n"
            "validate: 10 -> 10 problems=0\n"
            "lower: 10 -> 10 ops=10 dests=18 frame-slots=17 literals=3\n");
}

TEST(Pipeline, RunBuildsTheGraphRunStagesBuilds) {
  // Pipeline::run and the translate-layer entry point with no trace
  // produce byte-identical graphs for identical options.
  const auto prog = lang::corpus::running_example();
  const auto opts = full_stack();
  const auto via_pipeline = Pipeline(PipelineOptions(opts)).run(prog);
  support::DiagnosticEngine diags;
  const auto via_translate = translate::run_stages(prog, opts, diags);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(via_pipeline.translation.graph.to_dot(),
            via_translate.graph.to_dot());
}

TEST(Pipeline, RunFromProgramSkipsParse) {
  const auto r = Pipeline(PipelineOptions(full_stack()))
                     .run(lang::corpus::running_example());
  const auto* p = r.trace.find(Stage::kParse);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->ran);
}

TEST(Pipeline, SequentialModeSkipsLoopTransform) {
  const auto r = Pipeline(PipelineOptions(
                              translate::TranslateOptions::schema1()))
                     .run(lang::corpus::running_example_source());
  EXPECT_FALSE(r.trace.find(Stage::kLoopTransform)->ran);
  EXPECT_FALSE(r.trace.find(Stage::kDse)->ran);
  EXPECT_TRUE(r.trace.find(Stage::kTranslate)->ran);
}

TEST(Pipeline, DumpAfterCapturesStageArtifact) {
  PipelineOptions po(full_stack());
  po.dump_after = Stage::kTranslate;
  const auto r =
      Pipeline(po).run(lang::corpus::running_example_source());
  EXPECT_EQ(r.dump.rfind("digraph dfg", 0), 0u) << r.dump.substr(0, 40);

  // The parse dump is the program itself, pretty-printed.
  po.dump_after = Stage::kParse;
  const auto rp = Pipeline(po).run(lang::corpus::running_example_source());
  EXPECT_NE(rp.dump.find(":="), std::string::npos);

  // A stage that did not run yields no dump.
  PipelineOptions no_dse(translate::TranslateOptions::schema2_optimized());
  no_dse.dump_after = Stage::kDse;
  const auto rd =
      Pipeline(no_dse).run(lang::corpus::running_example_source());
  EXPECT_TRUE(rd.dump.empty());
}

TEST(Pipeline, LowerStageBuildsTheProgramImage) {
  PipelineOptions po(full_stack());
  po.dump_after = Stage::kLower;
  const auto r = Pipeline(po).run(lang::corpus::running_example_source());
  const auto* ls = r.trace.find(Stage::kLower);
  ASSERT_NE(ls, nullptr);
  EXPECT_TRUE(ls->ran);
  EXPECT_GT(ls->nanos, 0);
  const machine::ProgramImage& image = r.image;
  EXPECT_EQ(image.exec.num_ops(), r.translation.graph.num_nodes());
  EXPECT_EQ(ls->counter("ops"),
            static_cast<std::int64_t>(image.exec.num_ops()));
  EXPECT_EQ(r.dump.rfind("exec program", 0), 0u) << r.dump.substr(0, 40);
  EXPECT_EQ(image.memory_cells, r.translation.memory_cells);
  EXPECT_EQ(image.istructures, r.translation.istructures);
  EXPECT_EQ(image.shared, r.translation.shared_cells);
  ASSERT_EQ(image.names.size(), 2u);  // running example: x, y
  EXPECT_EQ(image.names[0].name, "x");

  // The image's program is the translation's graph, lowered.
  EXPECT_EQ(machine::render(image.exec),
            machine::render(machine::lower(r.translation.graph)));
}

TEST(Pipeline, BothRunOverloadsShareOneBody) {
  // From source or from a parsed program: the same graph, image and
  // stage records, except that only the source path parses.
  const std::string src = lang::corpus::running_example_source();
  const Pipeline p(full_stack_with_ssa());
  const auto from_source = p.run(src);
  const auto from_prog = p.run(core::parse(src));
  EXPECT_EQ(from_source.translation.graph.to_dot(),
            from_prog.translation.graph.to_dot());
  EXPECT_EQ(machine::serialize(from_source.image),
            machine::serialize(from_prog.image));
  ASSERT_EQ(from_source.trace.stages.size(), from_prog.trace.stages.size());
  for (std::size_t i = 1; i < from_prog.trace.stages.size(); ++i)
    EXPECT_EQ(from_source.trace.stages[i].ran, from_prog.trace.stages[i].ran)
        << i;
  EXPECT_TRUE(from_source.trace.find(Stage::kParse)->ran);
  EXPECT_FALSE(from_prog.trace.find(Stage::kParse)->ran);
}

TEST(Pipeline, TableRendersSkippedRowsAndTotal) {
  const auto r = Pipeline(PipelineOptions(
                              translate::TranslateOptions::schema2()))
                     .run(lang::corpus::running_example_source());
  const std::string table = r.trace.table();
  EXPECT_NE(table.find("cfg-build"), std::string::npos);
  EXPECT_NE(table.find("fanout"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Pipeline, ParseErrorsThrowCompileError) {
  EXPECT_THROW(Pipeline().run("this is not a program"),
               support::CompileError);
}

TEST(Pipeline, StageNamesRoundTrip) {
  for (Stage s : translate::all_stages()) {
    const auto back = translate::stage_from_name(translate::to_string(s));
    ASSERT_TRUE(back.has_value()) << translate::to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(translate::stage_from_name("nonsense").has_value());
  // One name per stage: the pre-pass-manager aliases are gone.
  EXPECT_EQ(translate::all_stages().size(), 14u);
  EXPECT_FALSE(translate::stage_from_name("post-opt").has_value());
  EXPECT_FALSE(translate::stage_from_name("fanout-lower").has_value());
}

}  // namespace
}  // namespace ctdf
