// Multi-processor machine mode: semantics must be placement- and
// PE-count-independent; throughput scales until the program's
// parallelism runs out.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"

namespace ctdf::machine {
namespace {

RunResult run_pe(const lang::Program& prog, unsigned pes,
                 Placement placement, unsigned net = 2) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kPipelined;
  mopt.processors = pes;
  mopt.placement = placement;
  mopt.network_latency = net;
  return core::execute(cr.image, mopt);
}

TEST(MultiPe, SemanticsIndependentOfTopology) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    const auto ref = lang::interpret(prog);
    for (const unsigned pes : {1u, 2u, 5u}) {
      for (const auto placement :
           {Placement::kByNode, Placement::kByContext}) {
        const auto res = run_pe(prog, pes, placement);
        ASSERT_TRUE(res.stats.completed)
            << np.name << " pes=" << pes << " " << to_string(placement)
            << ": " << res.stats.error_detail.render();
        EXPECT_EQ(res.store.cells, ref.store.cells)
            << np.name << " pes=" << pes << " " << to_string(placement);
      }
    }
  }
}

TEST(MultiPe, MorePesHelpParallelWork) {
  const auto prog =
      core::parse(lang::corpus::independent_chains_source(8, 4));
  const auto p1 = run_pe(prog, 1, Placement::kByNode, 0);
  const auto p8 = run_pe(prog, 8, Placement::kByNode, 0);
  ASSERT_TRUE(p1.stats.completed && p8.stats.completed);
  EXPECT_LT(p8.stats.cycles, p1.stats.cycles);
}

TEST(MultiPe, SinglePeMatchesWidthOne) {
  // One PE firing one op/cycle is the same machine as the abstract pool
  // at width 1 with no network (every hop is local).
  const auto prog = lang::corpus::running_example();
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  MachineOptions one_pe;
  one_pe.loop_mode = LoopMode::kPipelined;
  one_pe.processors = 1;
  one_pe.network_latency = 7;  // irrelevant: nothing crosses PEs
  MachineOptions width1;
  width1.loop_mode = LoopMode::kPipelined;
  width1.width = 1;
  const auto a = core::execute(cr.image, one_pe);
  const auto b = core::execute(cr.image, width1);
  ASSERT_TRUE(a.stats.completed && b.stats.completed);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.store.cells, b.store.cells);
}

TEST(MultiPe, NetworkLatencyCostsCycles) {
  const auto prog = lang::corpus::running_example();
  const auto cheap = run_pe(prog, 4, Placement::kByNode, 0);
  const auto costly = run_pe(prog, 4, Placement::kByNode, 10);
  ASSERT_TRUE(cheap.stats.completed && costly.stats.completed);
  EXPECT_LT(cheap.stats.cycles, costly.stats.cycles);
}

TEST(MultiPe, ByContextKeepsIterationsLocal) {
  // With frame placement, an iteration's internal arcs are all local;
  // only loop entry/exit transfers cross PEs. With node placement every
  // producer-consumer hop risks the network. On a serial loop with an
  // expensive network, frame placement must win.
  const auto prog = lang::corpus::running_example();
  const auto by_ctx = run_pe(prog, 4, Placement::kByContext, 12);
  const auto by_node = run_pe(prog, 4, Placement::kByNode, 12);
  ASSERT_TRUE(by_ctx.stats.completed && by_node.stats.completed);
  EXPECT_LT(by_ctx.stats.cycles, by_node.stats.cycles);
}

TEST(MultiPe, RandomProgramsAllTopologies) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    lang::GeneratorOptions gopt;
    gopt.allow_unstructured = true;
    gopt.num_arrays = 1;
    const auto prog = lang::generate_program(gopt, seed);
    const auto ref = lang::interpret(prog, 1'000'000);
    ASSERT_TRUE(ref.completed);
    for (const unsigned pes : {3u, 7u}) {
      const auto res = run_pe(prog, pes, Placement::kByContext);
      ASSERT_TRUE(res.stats.completed)
          << "seed " << seed << " pes " << pes << ": "
          << res.stats.error_detail.render();
      EXPECT_EQ(res.store.cells, ref.store.cells) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ctdf::machine
