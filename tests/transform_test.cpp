// Behavioral tests for the Section 6 transformations: they must both
// preserve semantics AND deliver their promised performance effect on
// the simulated machine.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"

namespace ctdf::translate {
namespace {

struct Exec {
  machine::RunStats stats;
  lang::Store store;
};

Exec exec(const lang::Program& prog, const TranslateOptions& topt,
        machine::MachineOptions mopt = {}) {
  const auto cr = core::Pipeline(topt).run(prog);
  auto res = core::execute(cr.image, mopt);
  EXPECT_TRUE(res.stats.completed) << topt.describe() << ": "
                                   << res.stats.error_detail.render();
  return {std::move(res.stats), std::move(res.store)};
}

machine::MachineOptions slow_memory() {
  machine::MachineOptions m;
  m.mem_latency = 20;
  return m;
}

TEST(MemElim, RemovesAllScalarMemoryTraffic) {
  const auto prog = lang::corpus::running_example();
  auto topt = TranslateOptions::schema2_optimized();
  const Exec base = exec(prog, topt, slow_memory());
  topt.eliminate_memory = true;
  const Exec elim = exec(prog, topt, slow_memory());

  // Loop iterations no longer round-trip through split-phase memory:
  // only the two final writebacks remain.
  EXPECT_EQ(elim.stats.mem_writes, 2u);
  EXPECT_EQ(elim.stats.mem_reads, 0u);
  EXPECT_GT(base.stats.mem_reads, 5u);
  EXPECT_LT(elim.stats.cycles, base.stats.cycles / 2);
  EXPECT_EQ(elim.store.cells, base.store.cells);
}

TEST(MemElim, AliasedVariablesKeepTheirMemoryOps) {
  const auto prog = lang::corpus::fortran_alias();
  auto topt = TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const Exec r = exec(prog, topt);
  // x, y, z are all aliased — nothing is eliminable.
  EXPECT_GT(r.stats.mem_reads, 0u);
  EXPECT_GT(r.stats.mem_writes, 3u);
}

TEST(ParallelReads, OverlapsLoadsSharingAnAccessToken) {
  // The transform targets reads that contend for the SAME access token.
  // Under the unified cover one statement reading 12 scalars chains 12
  // load round-trips; replicate-and-collect pays ~1.
  const auto prog =
      lang::parse_or_throw(lang::corpus::read_heavy_source(12));
  auto topt = TranslateOptions::schema3(CoverStrategy::kUnified);
  const Exec chained = exec(prog, topt, slow_memory());
  topt.parallel_reads = true;
  const Exec parallel = exec(prog, topt, slow_memory());
  EXPECT_EQ(parallel.store.cells, chained.store.cells);
  // The 12 initializing stores still serialize under the unified cover;
  // the read phase collapses from 12 round-trips to ~1 — at least 8
  // round-trips (of 20 cycles each) must disappear.
  EXPECT_LT(parallel.stats.cycles + 8 * 20, chained.stats.cycles);
}

TEST(ParallelReads, AliasedScalarReadsOverlapToo) {
  // Section 6.2's point: reads commute even for potentially aliased
  // variables — their access sets overlap on z, yet loads may all
  // proceed at once.
  const auto prog = lang::parse_or_throw(R"(
var x, y, z, s;
alias x z; alias y z;
x := 3; y := 4; z := 5;
s := x + y + z;
)");
  auto topt = TranslateOptions::schema3(CoverStrategy::kSingleton);
  const Exec chained = exec(prog, topt, slow_memory());
  topt.parallel_reads = true;
  const Exec parallel = exec(prog, topt, slow_memory());
  EXPECT_EQ(parallel.store.cells, chained.store.cells);
  EXPECT_LT(parallel.stats.cycles, chained.stats.cycles);
}

TEST(ParallelReads, NoEffectWithoutSharedResources) {
  // Reads of distinct unaliased variables already proceed in parallel
  // under Schema 2 — the transform must not slow anything down.
  const auto prog = lang::parse_or_throw(
      "var a, b, c, s; a := 1; b := 2; c := 3; s := a + b + c;");
  auto topt = TranslateOptions::schema2();
  const Exec base = exec(prog, topt, slow_memory());
  topt.parallel_reads = true;
  const Exec par = exec(prog, topt, slow_memory());
  EXPECT_EQ(par.store.cells, base.store.cells);
  EXPECT_LE(par.stats.cycles, base.stats.cycles + 2);
}

TEST(Fig14, OverlapsLoopStores) {
  const auto prog = lang::corpus::array_loop(16);
  machine::MachineOptions m = slow_memory();
  m.loop_mode = machine::LoopMode::kPipelined;

  auto topt = TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;  // isolate the array-store effect
  const Exec base = exec(prog, topt, m);
  topt.parallel_store_arrays = {"x"};
  const Exec fig14 = exec(prog, topt, m);

  EXPECT_EQ(fig14.store.cells, base.store.cells);
  // Stores overlap across iterations: the store latency is paid once
  // (pipelined), not once per iteration.
  EXPECT_LT(fig14.stats.cycles + 3 * 20, base.stats.cycles);
}

TEST(Fig14, BarrierLoopControlNeutralizesTheTransform) {
  // A finding this reproduction surfaces: under *barrier* loop control
  // the loop entry collects the completion chain before starting the
  // next iteration, re-serializing exactly what Fig. 14 decouples. The
  // transform is sound but performance-neutral there; it needs
  // pipelined loop entry to pay off (previous test).
  const auto prog = lang::corpus::array_loop(16);
  auto topt = TranslateOptions::schema2_optimized();
  const Exec base = exec(prog, topt, slow_memory());
  topt.parallel_store_arrays = {"x"};
  const Exec fig14 = exec(prog, topt, slow_memory());
  EXPECT_EQ(fig14.store.cells, base.store.cells);
  // Within a couple of cycles either way.
  EXPECT_LT(fig14.stats.cycles, base.stats.cycles + 8);
  EXPECT_GT(fig14.stats.cycles + 8, base.stats.cycles);
}

TEST(IStructures, ProducerConsumerOverlaps) {
  // A write loop followed by a read loop: with I-structures the reads
  // can defer instead of waiting for the full access-token handoff.
  const auto prog = lang::parse_or_throw(R"(
var i, j, s;
array a[24];
l1: i := i + 1; a[i] := i * 3; if i < 20 then goto l1 else goto l2;
l2: j := j + 1; s := s + a[j]; if j < 20 then goto l2 else goto end;
)");
  machine::MachineOptions m = slow_memory();
  m.loop_mode = machine::LoopMode::kPipelined;

  auto topt = TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const Exec base = exec(prog, topt, m);
  topt.istructure_arrays = {"a"};
  const Exec istr = exec(prog, topt, m);
  EXPECT_EQ(istr.store.cells, base.store.cells);
  EXPECT_LT(istr.stats.cycles, base.stats.cycles);
}

TEST(IStructures, WrongWriteOnceAssertionIsTrapped) {
  // The array is written twice at the same index — the machine must
  // trap rather than silently miscompute.
  const auto prog = lang::parse_or_throw(
      "var i; array a[4]; a[1] := 5; a[1] := 6;");
  auto topt = TranslateOptions::schema2_optimized();
  topt.istructure_arrays = {"a"};
  const auto cr = core::Pipeline(topt).run(prog);
  const auto res = core::execute(cr.image, {});
  EXPECT_FALSE(res.stats.completed);
  EXPECT_NE(res.stats.error_detail.render().find("double write"),
            std::string::npos);
}

TEST(Transforms, ComposeAllTogether) {
  const auto prog = lang::corpus::array_loop(12);
  const auto ref = lang::interpret(prog);
  ASSERT_TRUE(ref.completed);
  auto topt = TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.parallel_reads = true;
  topt.parallel_store_arrays = {"x"};
  machine::MachineOptions m;
  m.loop_mode = machine::LoopMode::kPipelined;
  const Exec r = exec(prog, topt, m);
  EXPECT_EQ(r.store.cells, ref.store.cells);
}

TEST(LoopModes, PipelinedNeverSlowerOnLoops) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    auto topt = TranslateOptions::schema2_optimized();
    machine::MachineOptions mb, mp;
    mb.loop_mode = machine::LoopMode::kBarrier;
    mp.loop_mode = machine::LoopMode::kPipelined;
    const Exec b = exec(prog, topt, mb);
    const Exec p = exec(prog, topt, mp);
    EXPECT_EQ(b.store.cells, p.store.cells) << np.name;
    EXPECT_LE(p.stats.cycles, b.stats.cycles + 2) << np.name;
  }
}

}  // namespace
}  // namespace ctdf::translate
