// Golden snapshots of translator output shapes for the corpus: exact
// operator counts per (program, schema). These lock the construction
// down against silent regressions — a change that adds or removes
// operators must be a conscious decision (update the table, explain
// why), not an accident.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

namespace ctdf::translate {
namespace {

struct Shape {
  std::size_t nodes;
  std::size_t switches;
  std::size_t merges;
  std::size_t loads;
  std::size_t stores;
};

Shape shape_of(const std::string& source, const TranslateOptions& o) {
  const auto cr = core::Pipeline(o).run(lang::parse_or_throw(source));
  const auto s = compute_stats(cr.translation.graph);
  return {s.nodes, s.switches, s.merges, s.loads, s.stores};
}

void expect_shape(const char* program_name, const std::string& source,
                  const TranslateOptions& o, const Shape& want) {
  const Shape got = shape_of(source, o);
  EXPECT_EQ(got.nodes, want.nodes) << program_name << " nodes";
  EXPECT_EQ(got.switches, want.switches) << program_name << " switches";
  EXPECT_EQ(got.merges, want.merges) << program_name << " merges";
  EXPECT_EQ(got.loads, want.loads) << program_name << " loads";
  EXPECT_EQ(got.stores, want.stores) << program_name << " stores";
}

TEST(Snapshot, RunningExample) {
  const auto src = lang::corpus::running_example_source();
  // Schema 1: single access token, no loop-control nodes; the header
  // join is the one merge; 3 loads (x at each of the three statements)
  // and 2 stores.
  expect_shape("running/schema1", src, TranslateOptions::schema1(),
               {12, 1, 1, 3, 2});
  expect_shape("running/schema2", src, TranslateOptions::schema2(),
               {14, 2, 0, 3, 2});
  expect_shape("running/schema2opt", src,
               TranslateOptions::schema2_optimized(), {14, 2, 0, 3, 2});
  auto elim = TranslateOptions::schema2_optimized();
  elim.eliminate_memory = true;
  expect_shape("running/memelim", src, elim, {11, 2, 0, 0, 2});
}

TEST(Snapshot, Fig9) {
  const auto src = lang::corpus::fig9_source();
  expect_shape("fig9/schema2", src, TranslateOptions::schema2(),
               {16, 3, 3, 2, 4});
  // Optimization: only y is switched; x and w tokens bypass; two joins
  // collapse to one real merge.
  expect_shape("fig9/schema2opt", src, TranslateOptions::schema2_optimized(),
               {12, 1, 1, 2, 4});
}

TEST(Snapshot, FortranAliasCoverSensitivity) {
  const auto src = lang::corpus::fortran_alias_source();
  const auto singleton = shape_of(
      src, TranslateOptions::schema3(CoverStrategy::kSingleton));
  const auto unified =
      shape_of(src, TranslateOptions::schema3(CoverStrategy::kUnified));
  const auto component =
      shape_of(src, TranslateOptions::schema3(CoverStrategy::kComponent));
  // Loads/stores are cover-independent (same statements).
  EXPECT_EQ(singleton.loads, unified.loads);
  EXPECT_EQ(singleton.stores, unified.stores);
  EXPECT_EQ(component.loads, unified.loads);
  // The singleton cover pays synch trees; unified/component do not, so
  // their graphs are strictly smaller here.
  EXPECT_GT(singleton.nodes, component.nodes);
  EXPECT_GE(component.nodes, unified.nodes);
}

TEST(Snapshot, ArrayLoop) {
  const auto src = lang::corpus::array_loop_source(10);
  expect_shape("array/schema2opt", src,
               TranslateOptions::schema2_optimized(), {13, 2, 0, 3, 2});
  auto fig14 = TranslateOptions::schema2_optimized();
  fig14.parallel_store_arrays = {"x"};
  const auto s = shape_of(src, fig14);
  // The transform adds the completion-chain synch and one more switch
  // (the chain token is switched too).
  EXPECT_GT(s.switches, 2u);
  EXPECT_EQ(s.loads, 3u);
}

TEST(Snapshot, SwitchCountsScaleAsDocumented) {
  // nested_bypass: naive = 3 switches/level (x, y, w); optimized =
  // 2/level minus the one predicate-only level (y and w only).
  for (const int depth : {2, 6}) {
    const auto src = lang::corpus::nested_bypass_source(depth);
    const auto naive = shape_of(src, TranslateOptions::schema2());
    const auto opt = shape_of(src, TranslateOptions::schema2_optimized());
    EXPECT_EQ(naive.switches, static_cast<std::size_t>(3 * depth));
    EXPECT_EQ(opt.switches, static_cast<std::size_t>(2 * depth - 1));
  }
}

}  // namespace
}  // namespace ctdf::translate
