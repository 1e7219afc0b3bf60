// Confluence: the final store must not depend on which ready operator
// the machine fires first. We randomize the scheduler and sweep machine
// shape (width, latencies, loop mode); every run must agree with the
// interpreter.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"

namespace ctdf::testing {
namespace {

void check_confluent(const lang::Program& prog,
                     const translate::TranslateOptions& topt,
                     const std::string& context) {
  const auto ref = lang::interpret(prog, 1'000'000);
  ASSERT_TRUE(ref.completed);
  const auto cr = core::Pipeline(topt).run(prog);

  for (const auto loop_mode :
       {machine::LoopMode::kBarrier, machine::LoopMode::kPipelined}) {
    for (const std::uint64_t seed : {0ull, 1ull, 7ull, 99ull}) {
      for (const unsigned width : {0u, 1u, 3u}) {
        machine::MachineOptions mopt;
        mopt.loop_mode = loop_mode;
        mopt.scheduler_seed = seed;
        mopt.width = width;
        mopt.mem_latency = seed % 2 ? 1 : 9;
        const auto res = core::execute(cr.image, mopt);
        ASSERT_TRUE(res.stats.completed)
            << context << " seed=" << seed << " width=" << width << ": "
            << res.stats.error_detail.render();
        EXPECT_EQ(res.store.cells, ref.store.cells)
            << context << " seed=" << seed << " width=" << width
            << " loop=" << to_string(loop_mode);
      }
    }
  }
}

TEST(Confluence, CorpusUnderOptimizedSchema) {
  for (const auto& np : lang::corpus::all()) {
    check_confluent(lang::parse_or_throw(np.source),
                    translate::TranslateOptions::schema2_optimized(),
                    np.name);
  }
}

TEST(Confluence, CorpusUnderMemoryElimination) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.parallel_reads = true;
  for (const auto& np : lang::corpus::all())
    check_confluent(lang::parse_or_throw(np.source), topt, np.name);
}

TEST(Confluence, Fig14ParallelStoresAreStillDeterministic) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.parallel_store_arrays = {"x"};
  check_confluent(lang::corpus::array_loop(10), topt, "array_loop");
}

TEST(Confluence, IStructuresAreDeterministic) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.istructure_arrays = {"x"};
  check_confluent(lang::corpus::array_loop(10), topt, "array_loop_istruct");
}

class ConfluenceRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfluenceRandom, RandomProgramsAreConfluent) {
  lang::GeneratorOptions gopt;
  gopt.allow_unstructured = true;
  gopt.allow_aliasing = true;
  gopt.num_arrays = 1;
  gopt.max_toplevel_stmts = 8;
  const auto prog = lang::generate_program(gopt, GetParam());
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.parallel_reads = true;
  check_confluent(prog, topt, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfluenceRandom,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ctdf::testing
