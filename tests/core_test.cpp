// Tests of the public facade: the exact surface a downstream user
// programs against.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

namespace ctdf::core {
namespace {

TEST(Core, ParseCompileExecuteRoundTrip) {
  const auto prog = parse(lang::corpus::running_example_source());
  const auto cr =
      Pipeline(translate::TranslateOptions::schema2_optimized()).run(prog);
  const auto res = execute(cr.image, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(read_scalar(prog, res.store, "x"), 5);
  EXPECT_EQ(read_scalar(prog, res.store, "y"), 5);
}

TEST(Core, ParseErrorsThrow) {
  EXPECT_THROW((void)parse("var x; x := ;"), support::CompileError);
  EXPECT_THROW((void)parse("x := 1;"), support::CompileError);  // undeclared
}

TEST(Core, InfiniteLoopRejectedAtCompile) {
  const auto prog = parse("var x; l: x := x + 1; goto l;");
  EXPECT_THROW(
      (void)Pipeline(translate::TranslateOptions::schema2()).run(prog),
      support::CompileError);
}

TEST(Core, ReadHelpersValidateNames) {
  const auto prog = parse("var x; array a[4]; x := 7; a[2] := 9;");
  const auto res = execute(
      Pipeline(translate::TranslateOptions::schema2()).run(prog).image, {});
  ASSERT_TRUE(res.stats.completed);
  EXPECT_EQ(read_scalar(prog, res.store, "x"), 7);
  EXPECT_EQ(read_element(prog, res.store, "a", 2), 9);
  EXPECT_EQ(read_element(prog, res.store, "a", 6), 9);  // wraps
  EXPECT_THROW((void)read_scalar(prog, res.store, "nope"),
               support::CompileError);
  EXPECT_THROW((void)read_element(prog, res.store, "nope", 0),
               support::CompileError);
}

TEST(Core, TranslationStatsArePopulated) {
  const auto tx = Pipeline(translate::TranslateOptions::schema2_optimized())
                      .run(lang::corpus::running_example())
                      .translation;
  EXPECT_GT(tx.cfg_nodes, 0u);
  EXPECT_GT(tx.cfg_edges, 0u);
  EXPECT_EQ(tx.num_resources, 2u);
  EXPECT_EQ(tx.loops, 1u);
  EXPECT_GT(tx.switches_placed, 0u);
  EXPECT_EQ(tx.memory_cells, 2u);
  EXPECT_TRUE(tx.istructures.empty());
}

TEST(Core, IStructureRegionsFlowThroughExecute) {
  auto o = translate::TranslateOptions::schema2_optimized();
  o.istructure_arrays = {"x"};
  const auto cr = Pipeline(o).run(lang::corpus::array_loop(5));
  ASSERT_EQ(cr.image.istructures.size(), 1u);
  const auto res = execute(cr.image, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  const auto prog = lang::corpus::array_loop(5);
  for (int i = 1; i <= 5; ++i)
    EXPECT_EQ(read_element(prog, res.store, "x", i), 1);
}

TEST(Core, DescribeStringsAreStable) {
  EXPECT_EQ(translate::TranslateOptions::schema1().describe(),
            "schema1(sequential)");
  EXPECT_EQ(translate::TranslateOptions::schema2().describe(),
            "schema2(cover=singleton)");
  EXPECT_EQ(translate::TranslateOptions::schema2_optimized().describe(),
            "schema2(cover=singleton)+opt-switches");
  auto o = translate::TranslateOptions::schema3(
      translate::CoverStrategy::kComponent);
  o.eliminate_memory = true;
  EXPECT_EQ(o.describe(), "schema3(cover=component)+mem-elim");
}

TEST(Core, OptimizerFlagSelectsOneLevel) {
  // The optimize stage has one switch, --opt=none|cleanup|all: it runs
  // unless the level is none, and the last --opt wins.
  using dfg::OptLevel;
  const std::string base = "schema2(cover=singleton)+opt-switches";
  const struct Row {
    std::vector<std::string> flags;
    OptLevel level;
    std::string describe;
  } rows[] = {
      {{}, OptLevel::kNone, base},
      {{"--opt=none"}, OptLevel::kNone, base},
      {{"--opt=cleanup"}, OptLevel::kCleanup, base + "+post-opt"},
      {{"--opt=all"}, OptLevel::kAll, base + "+post-opt+fuse"},
      {{"--opt=all", "--opt=none"}, OptLevel::kNone, base},
      {{"--opt=none", "--opt=cleanup"}, OptLevel::kCleanup,
       base + "+post-opt"},
  };
  for (const Row& row : rows) {
    std::string label;
    auto o = translate::TranslateOptions::schema2_optimized();
    for (const std::string& f : row.flags) {
      label += " " + f;
      ASSERT_EQ(translate::apply_schema_flag(o, f),
                translate::SchemaFlagParse::kApplied)
          << f;
    }
    EXPECT_EQ(o.opt_level, row.level) << label;
    EXPECT_EQ(o.describe(), row.describe) << label;
    const auto cr = Pipeline(o).run(lang::corpus::running_example_source());
    EXPECT_EQ(cr.trace.find(Stage::kOptimize)->ran,
              row.level != OptLevel::kNone)
        << label;
  }

  // A pass list, --post-opt and --fuse-limit are no longer spellings:
  // each is a bad value or an unknown flag, and leaves the level alone.
  for (const char* bad : {"--opt=dce", "--opt=dce,fuse", "--opt=fuse",
                          "--opt=", "--opt=ALL"}) {
    auto o = translate::TranslateOptions::schema2_optimized();
    EXPECT_EQ(translate::apply_schema_flag(o, bad),
              translate::SchemaFlagParse::kBadValue)
        << bad;
    EXPECT_EQ(o.opt_level, OptLevel::kNone) << bad;
  }
  for (const char* gone : {"--post-opt", "--fuse-limit=4"}) {
    auto o = translate::TranslateOptions::schema2_optimized();
    EXPECT_EQ(translate::apply_schema_flag(o, gone),
              translate::SchemaFlagParse::kNotSchemaFlag)
        << gone;
  }
}

}  // namespace
}  // namespace ctdf::core
