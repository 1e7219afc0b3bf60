// Bounded runs: k-bounded loops and a finite frame store must preserve
// semantics exactly while capping the number of live iteration
// contexts (frame footprint), and every way a run can fail instead has
// a typed error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "machine/flags.hpp"
#include "support/scan_reference.hpp"
#include "translate/options.hpp"

namespace ctdf::machine {
namespace {

struct Outcome {
  RunStats stats;
  lang::Store store;
};

Outcome run_bounded(const lang::Program& prog, unsigned bound,
                    unsigned mem_latency = 12) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.parallel_store_arrays = {"x"};
  const auto cr = core::Pipeline(topt).run(prog);
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kPipelined;
  mopt.loop_bound = bound;
  mopt.mem_latency = mem_latency;
  auto res = core::execute(cr.image, mopt);
  EXPECT_TRUE(res.stats.completed) << "bound=" << bound << ": "
                                   << res.stats.error_detail.render();
  return {std::move(res.stats), std::move(res.store)};
}

TEST(LoopBounding, SemanticsPreservedAcrossBounds) {
  const auto prog = lang::corpus::array_loop(24);
  const auto ref = lang::interpret(prog);
  ASSERT_TRUE(ref.completed);
  for (const unsigned bound : {1u, 2u, 3u, 8u, 0u}) {
    const Outcome o = run_bounded(prog, bound);
    EXPECT_EQ(o.store.cells, ref.store.cells) << "bound=" << bound;
  }
}

TEST(LoopBounding, BoundCapsLiveContexts) {
  const auto prog = lang::corpus::array_loop(32);
  // Long store latency stretches iteration lifetimes so unbounded
  // pipelining visibly piles up live contexts.
  const Outcome unbounded = run_bounded(prog, 0, 60);
  const Outcome k2 = run_bounded(prog, 2, 60);
  // Unbounded pipelining of the parallel store loop keeps many
  // iterations in flight; k=2 caps the footprint (the bound is
  // approximate only across nested-loop boundaries, absent here).
  EXPECT_GT(unbounded.stats.peak_live_contexts, 4u);
  EXPECT_LE(k2.stats.peak_live_contexts, 3u);
  EXPECT_GT(k2.stats.throttle_stalls, 0u);
  EXPECT_EQ(unbounded.stats.throttle_stalls, 0u);
}

TEST(LoopBounding, ThrottlingCostsCyclesMonotonically) {
  const auto prog = lang::corpus::array_loop(32);
  const Outcome k1 = run_bounded(prog, 1);
  const Outcome k4 = run_bounded(prog, 4);
  const Outcome unbounded = run_bounded(prog, 0);
  EXPECT_GE(k1.stats.cycles, k4.stats.cycles);
  EXPECT_GE(k4.stats.cycles, unbounded.stats.cycles);
  // k = 1 approaches barrier-like serialization.
  EXPECT_GT(k1.stats.cycles, unbounded.stats.cycles);
}

TEST(LoopBounding, NestedLoopsStillComplete) {
  const auto prog =
      lang::parse_or_throw(lang::corpus::nested_loops_source(4, 6));
  const auto ref = lang::interpret(prog);
  for (const unsigned bound : {1u, 2u, 0u}) {
    const Outcome o = run_bounded(prog, bound);
    EXPECT_EQ(o.store.cells, ref.store.cells) << "bound=" << bound;
  }
}

TEST(LoopBounding, IgnoredInBarrierMode) {
  const auto prog = lang::corpus::array_loop(12);
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kBarrier;
  mopt.loop_bound = 1;
  const auto res = core::execute(cr.image, mopt);
  ASSERT_TRUE(res.stats.completed) << res.stats.error_detail.render();
  EXPECT_EQ(res.stats.throttle_stalls, 0u);
}

TEST(LoopBounding, RandomProgramsUnaffectedSemantically) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    lang::GeneratorOptions gopt;
    gopt.allow_unstructured = true;
    const auto prog = lang::generate_program(gopt, seed);
    const auto ref = lang::interpret(prog, 1'000'000);
    ASSERT_TRUE(ref.completed);
    auto topt = translate::TranslateOptions::schema2_optimized();
    topt.eliminate_memory = true;
    const auto cr = core::Pipeline(topt).run(prog);
    for (const unsigned bound : {1u, 3u}) {
      MachineOptions mopt;
      mopt.loop_mode = LoopMode::kPipelined;
      mopt.loop_bound = bound;
      const auto res = core::execute(cr.image, mopt);
      ASSERT_TRUE(res.stats.completed)
          << "seed " << seed << " bound " << bound << ": "
          << res.stats.error_detail.render();
      EXPECT_EQ(res.store.cells, ref.store.cells)
          << "seed " << seed << " bound " << bound;
    }
  }
}

// -- finite frame store (back-pressure) --------------------------------

/// A bounded run is semantically indistinguishable from an unbounded
/// one: only timing may differ.
void expect_semantic_match(const RunResult& base, const RunResult& bounded,
                           const std::string& context) {
  ASSERT_TRUE(base.stats.completed)
      << context << ": " << base.stats.error_detail.render();
  EXPECT_TRUE(bounded.stats.completed)
      << context << ": " << bounded.stats.error_detail.render();
  if (!bounded.stats.completed) return;
  EXPECT_EQ(base.stats.ops_fired, bounded.stats.ops_fired) << context;
  EXPECT_EQ(base.stats.fired_by_kind, bounded.stats.fired_by_kind) << context;
  EXPECT_EQ(base.stats.mem_reads, bounded.stats.mem_reads) << context;
  EXPECT_EQ(base.stats.mem_writes, bounded.stats.mem_writes) << context;
  EXPECT_EQ(base.stats.contexts_allocated, bounded.stats.contexts_allocated)
      << context;
  EXPECT_EQ(base.stats.deferred_reads, bounded.stats.deferred_reads)
      << context;
  EXPECT_EQ(base.store.cells, bounded.store.cells) << context;
}

/// Finite frame store: a capacity that still admits progress degrades
/// the run gracefully — back-pressure stalls instead of failures, the
/// frame footprint bounded by the capacity, the outcome unchanged.
TEST(FrameCapacity, BackpressureGracefulDegradation) {
  const struct {
    const char* name;
    std::string source;
  } programs[] = {
      {"array_loop", lang::corpus::array_loop_source(10)},
      {"nested_loops", lang::corpus::nested_loops_source(3, 4)},
  };
  for (const auto& p : programs) {
    const auto cr =
        core::Pipeline(translate::TranslateOptions::schema2_optimized())
            .run(lang::parse_or_throw(p.source));
    // Pipelined forwardings are consumed from their source context when
    // they stall, so even capacity 1 makes progress — one iteration at
    // a time, throttled but semantically intact.
    MachineOptions mopt;
    mopt.loop_mode = LoopMode::kPipelined;
    const RunResult base = core::execute(cr.image, mopt);
    MachineOptions copt = mopt;
    copt.frame_capacity = 1;
    const RunResult capped = core::execute(cr.image, copt);
    expect_semantic_match(base, capped,
                          std::string(p.name) + " capacity=1 pipelined");
    EXPECT_GT(capped.stats.backpressure_stalls, 0u) << p.name;
    EXPECT_LE(capped.stats.peak_live_contexts, 1u) << p.name;
    EXPECT_GT(base.stats.peak_live_contexts, 1u) << p.name;
    // Barrier entries hold their circulating set matched while stalled;
    // a capacity that admits two live contexts completes untouched.
    MachineOptions bopt;
    bopt.loop_mode = LoopMode::kBarrier;
    const RunResult bbase = core::execute(cr.image, bopt);
    MachineOptions bcap = bopt;
    bcap.frame_capacity = 2;
    const RunResult bcapped = core::execute(cr.image, bcap);
    expect_semantic_match(bbase, bcapped,
                          std::string(p.name) + " capacity=2 barrier");
  }
}

/// A stalled barrier loop entry keeps its circulating set matched in
/// its frame and re-fires when another context retires. Here the slow
/// zero-trip first loop retires its context only after the entries of
/// the other two loops have stalled at capacity 3, so the run completes
/// only if both stalled entries are woken.
TEST(FrameCapacity, StalledBarrierEntriesWakeWhenAContextRetires) {
  const std::string source =
      "var i, j, k, a, b, c;\n"
      "while ((((((a*3+1)*3+1)*3+1)*3+1)*3+1)*3+1) < 0 { a := a + 1; }\n"
      "while j < 4 { j := j + 1; }\n"
      "while k < 5 { k := k + 1; }\n";
  const lang::Program prog = lang::parse_or_throw(source);
  const auto ref = lang::interpret(prog);
  ASSERT_TRUE(ref.completed);
  // ctdf run flags, and the cycles each run took when this test was
  // written (the barrier-entry wake path's schedule).
  const struct {
    std::vector<std::string> flags;
    std::uint64_t cycles;
  } runs[] = {
      {{"--mem-elim"}, 41},
      {{"--dse"}, 93},
      {{"--mem-elim", "--processors=2"}, 56},
  };
  for (const auto& r : runs) {
    auto topt = translate::TranslateOptions::schema2_optimized();
    MachineOptions mopt = default_cli_machine_options();
    std::string context = "--barrier --frame-capacity=3";
    std::vector<std::string> flags = {"--barrier", "--frame-capacity=3"};
    for (const std::string& f : r.flags) {
      flags.push_back(f);
      context += " " + f;
    }
    for (const std::string& f : flags) {
      if (translate::apply_schema_flag(topt, f) ==
          translate::SchemaFlagParse::kApplied)
        continue;
      ASSERT_EQ(apply_machine_flag(mopt, f), MachineFlagParse::kApplied) << f;
    }
    const ProgramImage image = core::make_program_image(
        core::Pipeline(core::PipelineOptions(topt)).run(prog));
    const RunResult event = core::execute(image, mopt);
    ASSERT_TRUE(event.stats.completed)
        << context << ": " << event.stats.error_detail.render();
    EXPECT_EQ(event.stats.backpressure_stalls, 2u) << context;
    EXPECT_EQ(event.stats.cycles, r.cycles) << context;
    EXPECT_EQ(event.store.cells, ref.store.cells) << context;
    const RunResult scan = testing::run_scan(image, mopt);
    EXPECT_EQ(scan.stats.completed, event.stats.completed) << context;
    EXPECT_EQ(scan.stats.cycles, event.stats.cycles) << context;
    EXPECT_EQ(scan.stats.ops_fired, event.stats.ops_fired) << context;
    EXPECT_EQ(scan.stats.tokens_sent, event.stats.tokens_sent) << context;
    EXPECT_EQ(scan.stats.matches, event.stats.matches) << context;
    EXPECT_EQ(scan.stats.backpressure_stalls, event.stats.backpressure_stalls)
        << context;
    EXPECT_EQ(scan.stats.peak_live_contexts, event.stats.peak_live_contexts)
        << context;
    EXPECT_EQ(scan.stats.first_fire_cycle, event.stats.first_fire_cycle)
        << context;
    EXPECT_EQ(scan.store.cells, event.store.cells) << context;
  }
}

// -- typed failure taxonomy ----------------------------------------------

TEST(FrameCapacity, FrameExhaustedIsTyped) {
  // Barrier entry under capacity 1: the strict firing needs the
  // previous iteration's context live *and* a fresh one — the frame
  // store can never satisfy both, and no context can retire.
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::array_loop_source(6));
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kBarrier;
  mopt.frame_capacity = 1;
  const RunResult r = core::execute(cr.image, mopt);
  const std::string error = r.stats.error_detail.render();
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kFrameExhausted);
  EXPECT_NE(error.find("frame store exhausted"), std::string::npos) << error;
  EXPECT_NE(error.find("blocked on frame capacity 1"), std::string::npos)
      << error;
  // Per-loop breakdown in the diagnosis.
  EXPECT_NE(r.stats.error_detail.diagnosis.find("loop state:"),
            std::string::npos)
      << r.stats.error_detail.diagnosis;
  EXPECT_GT(r.stats.backpressure_stalls, 0u);
}

TEST(RunErrorTaxonomy, CycleCapKeepsItsOneLineText) {
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::running_example_source());
  MachineOptions mopt;
  mopt.budget.max_cycles = 3;
  const RunResult r = core::execute(cr.image, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kCycleCap);
  // The message alone: a cycle-cap error carries no diagnosis.
  EXPECT_EQ(r.stats.error_detail.render(),
            "cycle cap exceeded (possible livelock or non-terminating "
            "program)");
}

TEST(RunErrorTaxonomy, CodeSlugsAreStable) {
  EXPECT_STREQ(code_slug(ErrorCode::kNone), "none");
  EXPECT_STREQ(code_slug(ErrorCode::kDeadlock), "deadlock");
  EXPECT_STREQ(code_slug(ErrorCode::kSlotCollision), "slot-collision");
  EXPECT_STREQ(code_slug(ErrorCode::kCycleCap), "cycle-cap");
  EXPECT_STREQ(code_slug(ErrorCode::kFrameExhausted), "frame-exhausted");
  EXPECT_STREQ(code_slug(ErrorCode::kIStoreDoubleWrite),
               "istore-double-write");
  EXPECT_STREQ(code_slug(ErrorCode::kStoreInFlight), "store-in-flight");
  EXPECT_STREQ(code_slug(ErrorCode::kLoopExitOutsideLoop),
               "loop-exit-outside-loop");
}

}  // namespace
}  // namespace ctdf::machine
