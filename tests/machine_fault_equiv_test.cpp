// Differential harness for deterministic fault injection: for every
// swept configuration, a within-budget fault plan (dropped / duplicated
// / jittered cross-PE tokens, split-phase memory NACKs) must preserve
// the semantic outcome of the run — the final store, operators fired by
// kind, and memory traffic — while only timing (cycles, tokens resent)
// may change. Zero-rate plans leave MachineOptions::faults disengaged,
// so the engine stays byte-identical to its fault-free self; the
// event-policy equivalence suite continues to pin that.
// Finite frame capacity (back-pressure) and every typed failure code
// of the taxonomy are exercised here too.
#include <gtest/gtest.h>

#include <string>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "machine/machine.hpp"
#include "support/scan_reference.hpp"

namespace ctdf::machine {
namespace {

/// The invariant the recovery machinery promises: a recovered run is
/// semantically indistinguishable from a fault-free one.
void expect_semantic_match(const RunResult& base, const RunResult& faulted,
                           const std::string& context) {
  ASSERT_TRUE(base.stats.completed) << context << ": " << base.stats.error;
  EXPECT_TRUE(faulted.stats.completed)
      << context << ": " << faulted.stats.error;
  if (!faulted.stats.completed) return;
  EXPECT_EQ(base.stats.ops_fired, faulted.stats.ops_fired) << context;
  EXPECT_EQ(base.stats.fired_by_kind, faulted.stats.fired_by_kind) << context;
  EXPECT_EQ(base.stats.mem_reads, faulted.stats.mem_reads) << context;
  EXPECT_EQ(base.stats.mem_writes, faulted.stats.mem_writes) << context;
  EXPECT_EQ(base.stats.contexts_allocated, faulted.stats.contexts_allocated)
      << context;
  EXPECT_EQ(base.stats.deferred_reads, faulted.stats.deferred_reads)
      << context;
  EXPECT_EQ(base.store.cells, faulted.store.cells) << context;
}

FaultPlan plan_with(double rate, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop = rate;
  plan.dup = rate;
  plan.jitter = rate;
  plan.nack = rate;
  return plan;
}

/// Corpus × pending-queue policies (machine::run and the scan
/// reference) × loop modes × placements × fault seeds × rates.
/// loop_bound stays 0 throughout: k-bound throttle stalls are counted
/// as firings and their number is timing-dependent, so they are
/// deliberately outside the semantic-equivalence contract.
TEST(FaultEquiv, RecoveredRunsMatchFaultFreeSemantics) {
  const struct {
    const char* name;
    std::string source;
  } programs[] = {
      {"running_example", lang::corpus::running_example_source()},
      {"array_loop", lang::corpus::array_loop_source(8)},
      {"nested_loops", lang::corpus::nested_loops_source(3, 4)},
  };
  const struct {
    unsigned processors;
    Placement placement;
  } topologies[] = {
      {2, Placement::kByContext},
      {3, Placement::kByNode},
  };
  std::uint64_t total_faults = 0;
  for (const auto& p : programs) {
    const auto tx = core::compile(
        lang::parse_or_throw(p.source),
        translate::TranslateOptions::schema2_optimized());
    for (const auto loop_mode : {LoopMode::kBarrier, LoopMode::kPipelined}) {
      for (const bool scan : {false, true}) {
        const auto execute = [&](const MachineOptions& o) {
          return scan ? testing::run_scan(tx, o) : core::execute(tx, o);
        };
        for (const auto& topo : topologies) {
          MachineOptions mopt;
          mopt.loop_mode = loop_mode;
          mopt.processors = topo.processors;
          mopt.placement = topo.placement;
          const RunResult base = execute(mopt);
          for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
            for (const double rate : {0.02, 0.1}) {
              MachineOptions fopt = mopt;
              fopt.faults = plan_with(rate, seed);
              const RunResult faulted = execute(fopt);
              expect_semantic_match(
                  base, faulted,
                  std::string(p.name) + " loop=" + to_string(loop_mode) +
                      (scan ? " policy=scan" : " policy=event") +
                      " pe=" + std::to_string(topo.processors) +
                      " placement=" + to_string(topo.placement) +
                      " fault_seed=" + std::to_string(seed) +
                      " rate=" + std::to_string(rate));
              total_faults += faulted.stats.faults_injected;
            }
          }
        }
      }
    }
  }
  // The sweep is vacuous unless faults actually landed.
  EXPECT_GT(total_faults, 0u);
}

/// A zero-rate plan (even with a nonzero seed) never engages the fault
/// machinery: every counter, timing included, is byte-identical.
TEST(FaultEquiv, ZeroRatePlanIsByteIdentical) {
  const auto tx =
      core::compile(lang::corpus::nested_loops_source(3, 4),
                    translate::TranslateOptions::schema2_optimized());
  MachineOptions mopt;
  mopt.processors = 2;
  mopt.record_profile = true;
  const RunResult plain = core::execute(tx, mopt);
  MachineOptions zopt = mopt;
  zopt.faults = plan_with(0.0, 99);
  const RunResult zero = core::execute(tx, zopt);
  EXPECT_EQ(plain.stats.completed, zero.stats.completed);
  EXPECT_EQ(plain.stats.cycles, zero.stats.cycles);
  EXPECT_EQ(plain.stats.ops_fired, zero.stats.ops_fired);
  EXPECT_EQ(plain.stats.tokens_sent, zero.stats.tokens_sent);
  EXPECT_EQ(plain.stats.matches, zero.stats.matches);
  EXPECT_EQ(plain.stats.peak_ready, zero.stats.peak_ready);
  EXPECT_EQ(plain.stats.fired_by_kind, zero.stats.fired_by_kind);
  EXPECT_EQ(plain.stats.first_fire_cycle, zero.stats.first_fire_cycle);
  EXPECT_EQ(plain.stats.profile, zero.stats.profile);
  EXPECT_EQ(plain.store.cells, zero.store.cells);
  EXPECT_EQ(zero.stats.faults_injected, 0u);
}

/// Finite frame store: a capacity that still admits progress degrades
/// the run gracefully — back-pressure stalls instead of failures, the
/// frame footprint bounded by the capacity, the outcome unchanged.
TEST(FaultEquiv, BackpressureGracefulDegradation) {
  const struct {
    const char* name;
    std::string source;
  } programs[] = {
      {"array_loop", lang::corpus::array_loop_source(10)},
      {"nested_loops", lang::corpus::nested_loops_source(3, 4)},
  };
  for (const auto& p : programs) {
    const auto tx = core::compile(
        lang::parse_or_throw(p.source),
        translate::TranslateOptions::schema2_optimized());
    // Pipelined forwardings are consumed from their source context when
    // they stall, so even capacity 1 makes progress — one iteration at
    // a time, throttled but semantically intact.
    MachineOptions mopt;
    mopt.loop_mode = LoopMode::kPipelined;
    const RunResult base = core::execute(tx, mopt);
    MachineOptions copt = mopt;
    copt.frame_capacity = 1;
    const RunResult capped = core::execute(tx, copt);
    expect_semantic_match(base, capped,
                          std::string(p.name) + " capacity=1 pipelined");
    EXPECT_GT(capped.stats.backpressure_stalls, 0u) << p.name;
    EXPECT_LE(capped.stats.peak_live_contexts, 1u) << p.name;
    EXPECT_GT(base.stats.peak_live_contexts, 1u) << p.name;
    // Barrier entries hold their circulating set matched while stalled;
    // a capacity that admits two live contexts completes untouched.
    MachineOptions bopt;
    bopt.loop_mode = LoopMode::kBarrier;
    const RunResult bbase = core::execute(tx, bopt);
    MachineOptions bcap = bopt;
    bcap.frame_capacity = 2;
    const RunResult bcapped = core::execute(tx, bcap);
    expect_semantic_match(bbase, bcapped,
                          std::string(p.name) + " capacity=2 barrier");
  }
}

// -- typed failure taxonomy ----------------------------------------------

TEST(FaultTaxonomy, RetryExhaustedIsTyped) {
  const auto tx =
      core::compile(lang::corpus::running_example_source(),
                    translate::TranslateOptions::schema2_optimized());
  MachineOptions mopt;
  mopt.processors = 2;
  mopt.faults.drop = 1.0;  // every cross-PE transmission exhausts
  const RunResult r = core::execute(tx, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kRetryExhausted);
  EXPECT_NE(r.stats.error.find("retry budget exhausted"), std::string::npos)
      << r.stats.error;
  EXPECT_GE(r.stats.watchdog_triggers, 1u);
  // The structured diagnosis rides along in the rendered string.
  EXPECT_NE(r.stats.error.find("loop state:"), std::string::npos)
      << r.stats.error;
  EXPECT_EQ(r.stats.error, r.stats.error_detail.render());
}

TEST(FaultTaxonomy, FrameExhaustedIsTyped) {
  // Barrier entry under capacity 1: the strict firing needs the
  // previous iteration's context live *and* a fresh one — the frame
  // store can never satisfy both, and no context can retire.
  const auto tx =
      core::compile(lang::corpus::array_loop_source(6),
                    translate::TranslateOptions::schema2_optimized());
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kBarrier;
  mopt.frame_capacity = 1;
  const RunResult r = core::execute(tx, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kFrameExhausted);
  EXPECT_NE(r.stats.error.find("frame store exhausted"), std::string::npos)
      << r.stats.error;
  EXPECT_NE(r.stats.error.find("blocked on frame capacity 1"),
            std::string::npos)
      << r.stats.error;
  // Per-loop breakdown in the diagnosis.
  EXPECT_NE(r.stats.error_detail.diagnosis.find("loop state:"),
            std::string::npos)
      << r.stats.error_detail.diagnosis;
  EXPECT_GT(r.stats.backpressure_stalls, 0u);
}

TEST(FaultTaxonomy, WatchdogReportsStalledProgress) {
  // watchdog_steps=1 aborts on the first zero-firing scheduler step;
  // with every cross-PE token jittered, operand arrival is staggered
  // enough that one always occurs.
  const auto tx =
      core::compile(lang::corpus::nested_loops_source(3, 4),
                    translate::TranslateOptions::schema2_optimized());
  MachineOptions mopt;
  mopt.processors = 2;
  mopt.faults.jitter = 1.0;
  mopt.faults.watchdog_steps = 1;
  const RunResult r = core::execute(tx, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kDeadlock);
  EXPECT_NE(r.stats.error.find("watchdog: no operator fired"),
            std::string::npos)
      << r.stats.error;
  EXPECT_GE(r.stats.watchdog_triggers, 1u);
  // Structured diagnosis: blocked slots and the oldest pending token.
  EXPECT_NE(r.stats.error_detail.diagnosis.find("blocked:"),
            std::string::npos)
      << r.stats.error_detail.diagnosis;
  EXPECT_NE(r.stats.error_detail.diagnosis.find("oldest pending token:"),
            std::string::npos)
      << r.stats.error_detail.diagnosis;
}

TEST(FaultTaxonomy, CycleCapKeepsLegacyTextWhenFaultFree) {
  const auto tx =
      core::compile(lang::corpus::running_example_source(),
                    translate::TranslateOptions::schema2_optimized());
  MachineOptions mopt;
  mopt.budget.max_cycles = 3;
  const RunResult r = core::execute(tx, mopt);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kCycleCap);
  // Fault-free runs keep the exact legacy rendering (no diagnosis).
  EXPECT_EQ(r.stats.error,
            "cycle cap exceeded (possible livelock or non-terminating "
            "program)");
  // With the fault machinery engaged the same error carries a
  // diagnosis.
  MachineOptions fopt = mopt;
  fopt.processors = 2;
  fopt.faults.jitter = 0.5;
  const RunResult rf = core::execute(tx, fopt);
  EXPECT_EQ(rf.stats.error_detail.code, ErrorCode::kCycleCap);
  EXPECT_NE(rf.stats.error.find("blocked:"), std::string::npos)
      << rf.stats.error;
}

TEST(FaultTaxonomy, CodeSlugsAreStable) {
  EXPECT_STREQ(code_slug(ErrorCode::kNone), "none");
  EXPECT_STREQ(code_slug(ErrorCode::kDeadlock), "deadlock");
  EXPECT_STREQ(code_slug(ErrorCode::kSlotCollision), "slot-collision");
  EXPECT_STREQ(code_slug(ErrorCode::kCycleCap), "cycle-cap");
  EXPECT_STREQ(code_slug(ErrorCode::kFrameExhausted), "frame-exhausted");
  EXPECT_STREQ(code_slug(ErrorCode::kRetryExhausted), "retry-exhausted");
  EXPECT_STREQ(code_slug(ErrorCode::kIStoreDoubleWrite),
               "istore-double-write");
  EXPECT_STREQ(code_slug(ErrorCode::kStoreInFlight), "store-in-flight");
}

TEST(FaultTaxonomy, FaultSpecParser) {
  FaultPlan plan;
  EXPECT_EQ(parse_fault_spec(
                "drop=0.1,dup=0.05,jitter=0.2,nack=0.1,attempts=4,"
                "backoff=8,cap=128,watchdog=500",
                plan),
            "");
  EXPECT_DOUBLE_EQ(plan.drop, 0.1);
  EXPECT_DOUBLE_EQ(plan.dup, 0.05);
  EXPECT_EQ(plan.max_attempts, 4u);
  EXPECT_EQ(plan.backoff_base, 8u);
  EXPECT_EQ(plan.backoff_cap, 128u);
  EXPECT_EQ(plan.watchdog_steps, 500u);
  EXPECT_TRUE(plan.enabled());
  FaultPlan bad;
  EXPECT_NE(parse_fault_spec("drop=1.5", bad), "");
  EXPECT_NE(parse_fault_spec("gremlins=0.5", bad), "");
  EXPECT_NE(parse_fault_spec("attempts=0", bad), "");
  EXPECT_NE(parse_fault_spec("backoff=16,cap=2", bad), "");
}

}  // namespace
}  // namespace ctdf::machine
