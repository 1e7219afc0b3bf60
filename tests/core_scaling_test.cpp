// Compile time grows linearly with loop nesting. A program of n nested
// `while`s has a CFG of about 2n nodes and n loops, each nested in the
// last. A loop forest that stores every loop's members, or a loop query
// that scans every loop, costs O(n²) there: about 25× from 250 to 1 000
// levels, where linear growth is 4×.
//
// The test compiles both sizes in one run and bounds loop-transform's
// growth at 6×. Each size takes the fastest of five compiles, so one
// descheduled compile cannot fail it. The ratios of switch-place and
// translate, which read the same forest, are printed beside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/pipeline.hpp"
#include "support/deep_sources.hpp"

namespace ctdf::core {
namespace {

using Times = std::array<std::int64_t, translate::kNumStages>;

/// Keeps each stage's fastest wall time in `best`.
void keep_fastest(const CompileResult& cr, Times& best) {
  for (const translate::StageRecord& r : cr.trace.stages) {
    std::int64_t& t = best[static_cast<std::size_t>(r.stage)];
    t = std::min(t, r.nanos);
  }
}

TEST(CompileScaling, LoopTransformIsLinearInNestingDepth) {
  const Pipeline pipeline{
      PipelineOptions(translate::TranslateOptions::schema2_optimized())};
  const std::string small_source = testing::nested_blocks("while", 250);
  const std::string large_source = testing::nested_blocks("while", 1000);
  Times small, large;
  small.fill(INT64_MAX);
  large.fill(INT64_MAX);
  // Alternate the sizes, so a slow spell on the host hits both.
  for (int i = 0; i < 5; ++i) {
    keep_fastest(pipeline.run(small_source), small);
    keep_fastest(pipeline.run(large_source), large);
  }

  const auto ratio = [&](Stage s) {
    const auto i = static_cast<std::size_t>(s);
    return static_cast<double>(large[i]) /
           static_cast<double>(std::max<std::int64_t>(small[i], 1));
  };
  for (const Stage s :
       {Stage::kLoopTransform, Stage::kSwitchPlace, Stage::kTranslate}) {
    const auto i = static_cast<std::size_t>(s);
    std::printf("%-15s 250 levels %8.1f us, 1000 levels %8.1f us: %4.1fx\n",
                translate::to_string(s), small[i] / 1e3, large[i] / 1e3,
                ratio(s));
  }
  EXPECT_LE(ratio(Stage::kLoopTransform), 6.0);
}

}  // namespace
}  // namespace ctdf::core
