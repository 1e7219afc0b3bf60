// Property family for the Section 6.3 transforms: randomized array
// fill/reduce loop nests (random trip counts, strides, offsets, array
// sizes, machine shapes) under fig14 and I-structure translation must
// match the interpreter.
#include <gtest/gtest.h>

#include <sstream>

#include "core/compiler.hpp"
#include "support/rng.hpp"

namespace ctdf::testing {
namespace {

struct Family {
  std::string source;
  bool write_once = true;  ///< eligible for --istructure
};

/// A random produce/consume nest:
///   for i in 0..trips:  a[c*i + d] := <expr(i)>
///   for j in 0..trips:  s := s + a[c*j + d]
/// With |c·trips + d| within the array bounds, the program is
/// write-once and every store hits a distinct cell.
Family make_family(support::SplitMix64& rng) {
  const std::int64_t trips = rng.next_in(1, 24);
  const std::int64_t stride = rng.chance(1, 2) ? 1 : rng.next_in(2, 3);
  const std::int64_t offset = rng.next_in(0, 3);
  const std::int64_t size = stride * (trips + 1) + offset + 1;

  std::ostringstream os;
  os << "var i, j, s;\narray a[" << size << "];\n";
  os << "fill: i := i + 1;\n";
  os << "  a[" << stride << " * i + " << offset << "] := i * "
     << rng.next_in(1, 5) << " + " << rng.next_in(-3, 3) << ";\n";
  os << "  if i < " << trips << " then goto fill else goto reduce;\n";
  os << "reduce: j := j + 1;\n";
  os << "  s := s + a[" << stride << " * j + " << offset << "];\n";
  os << "  if j < " << trips << " then goto reduce else goto end;\n";
  return {os.str(), true};
}

class ArrayTransforms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrayTransforms, Fig14AndIStructuresMatchInterpreter) {
  support::SplitMix64 rng(GetParam() * 1000003 + 17);
  const Family fam = make_family(rng);
  const auto prog = core::parse(fam.source);
  const auto ref = lang::interpret(prog, 2'000'000);
  ASSERT_TRUE(ref.completed);

  for (const bool memelim : {false, true}) {
    for (const int variant : {0, 1, 2}) {  // 0 base, 1 fig14, 2 istruct
      auto topt = translate::TranslateOptions::schema2_optimized();
      topt.eliminate_memory = memelim;
      if (variant == 1) topt.parallel_store_arrays = {"a"};
      if (variant == 2) topt.istructure_arrays = {"a"};
      const auto cr = core::Pipeline(topt).run(prog);
      for (const auto mode :
           {machine::LoopMode::kBarrier, machine::LoopMode::kPipelined}) {
        machine::MachineOptions mopt;
        mopt.loop_mode = mode;
        mopt.mem_latency = static_cast<unsigned>(rng.next_in(1, 20));
        mopt.width = rng.chance(1, 2) ? 0 : 2;
        const auto res = core::execute(cr.image, mopt);
        ASSERT_TRUE(res.stats.completed)
            << topt.describe() << " " << to_string(mode) << ": "
            << res.stats.error_detail.render() << "\n" << fam.source;
        EXPECT_EQ(res.store.cells, ref.store.cells)
            << topt.describe() << " " << to_string(mode) << "\n"
            << fam.source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayTransforms,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(ArrayTransformsEdge, StrideLargerThanOne) {
  const auto prog = core::parse(R"(
var i; array a[64];
l: i := i + 1; a[3 * i] := i; if i < 20 then goto l else goto end;
)");
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.parallel_store_arrays = {"a"};
  const auto cr = core::Pipeline(topt).run(prog);
  EXPECT_EQ(cr.translation.loops_store_parallelized, 1u);
  const auto ref = lang::interpret(prog);
  const auto res = core::execute(cr.image, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.store.cells, ref.store.cells);
}

TEST(ArrayTransformsEdge, TwoArraysOneMarked) {
  const auto prog = core::parse(R"(
var i; array a[16], b[16];
l: i := i + 1; a[i] := i; b[i] := a[i] * 0 + i + 1;
if i < 12 then goto l else goto end;
)");
  // a is read in the loop (by b's rhs), so only b qualifies.
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.parallel_store_arrays = {"a", "b"};
  const auto cr = core::Pipeline(topt).run(prog);
  EXPECT_EQ(cr.translation.loops_store_parallelized, 1u);
  const auto ref = lang::interpret(prog);
  const auto res = core::execute(cr.image, {});
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.store.cells, ref.store.cells);
}

}  // namespace
}  // namespace ctdf::testing
