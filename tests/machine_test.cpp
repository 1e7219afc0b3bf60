// Direct machine tests on hand-built dataflow graphs: operator
// semantics, split-phase timing, deadlock/collision detection,
// I-structures, and loop-context mechanics.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/graph.hpp"
#include "lang/corpus.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"

namespace ctdf::machine {
namespace {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

NodeId add_start(Graph& g, std::vector<std::int64_t> values) {
  Node s;
  s.kind = OpKind::kStart;
  s.num_outputs = static_cast<std::uint16_t>(values.size());
  s.start_values = std::move(values);
  const NodeId n = g.add(std::move(s));
  g.set_start(n);
  return n;
}

NodeId add_end(Graph& g, std::uint16_t inputs) {
  Node e;
  e.kind = OpKind::kEnd;
  e.num_inputs = inputs;
  const NodeId n = g.add(std::move(e));
  g.set_end(n);
  return n;
}

TEST(Machine, StoreThenLoad) {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId st = g.add_store(3, "st");
  g.bind_literal({st, 0}, 77);
  g.connect({s, 0}, {st, 1}, true);
  const NodeId ld = g.add_load(3, "ld");
  g.connect({st, 0}, {ld, 0}, true);
  const NodeId st2 = g.add_store(4, "st2");
  g.connect({ld, dfg::port::kLoadValue}, {st2, 0}, false);
  g.connect({ld, dfg::port::kLoadAck}, {st2, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({st2, 0}, {e, 0}, true);
  ASSERT_TRUE(g.validate().empty());

  const RunResult r = run(lower(g), 5, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[3], 77);
  EXPECT_EQ(r.store.cells[4], 77);
  EXPECT_EQ(r.stats.mem_reads, 1u);
  EXPECT_EQ(r.stats.mem_writes, 2u);
}

TEST(Machine, AluEvaluation) {
  Graph g;
  const NodeId s = add_start(g, {5});
  const NodeId mul = g.add_binop(lang::BinOp::kMul);
  g.connect({s, 0}, {mul, 0}, false);
  g.bind_literal({mul, 1}, 6);
  const NodeId neg = g.add_unop(lang::UnOp::kNeg);
  g.connect({mul, 0}, {neg, 0}, false);
  const NodeId st = g.add_store(0, "out");
  g.connect({neg, 0}, {st, 0}, false);
  g.connect({neg, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);

  const RunResult r = run(lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], -30);
}

TEST(Machine, SwitchRoutesByPredicate) {
  for (const std::int64_t pred : {0, 1}) {
    Graph g;
    const NodeId s = add_start(g, {9});
    const NodeId sw = g.add_switch();
    g.connect({s, 0}, {sw, dfg::port::kSwitchData}, false);
    g.bind_literal({sw, dfg::port::kSwitchPred}, pred);
    const NodeId st_t = g.add_store(0, "t");
    const NodeId st_f = g.add_store(1, "f");
    g.connect({sw, dfg::port::kSwitchTrue}, {st_t, 0}, false);
    g.connect({sw, dfg::port::kSwitchTrue}, {st_t, 1}, false);
    g.connect({sw, dfg::port::kSwitchFalse}, {st_f, 0}, false);
    g.connect({sw, dfg::port::kSwitchFalse}, {st_f, 1}, false);
    const NodeId e = add_end(g, 1);
    g.connect({st_t, 0}, {e, 0}, true);
    g.connect({st_f, 0}, {e, 0}, true);

    const RunResult r = run(lower(g), 2, {});
    ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
    EXPECT_EQ(r.store.cells[pred ? 0 : 1], 9);
    EXPECT_EQ(r.store.cells[pred ? 1 : 0], 0);
  }
}

TEST(Machine, SynchWaitsForAllInputs) {
  Graph g;
  const NodeId s = add_start(g, {0, 0, 0});
  const NodeId sy = g.add_synch(3);
  for (std::uint16_t i = 0; i < 3; ++i) g.connect({s, i}, {sy, i}, true);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 0, {});
  ASSERT_TRUE(r.stats.completed);
  // 3 tokens rendezvous at the synch, plus its output matching at end.
  EXPECT_EQ(r.stats.matches, 4u);
  // The synch fired exactly once.
  EXPECT_EQ(r.stats.fired_by_kind[static_cast<std::size_t>(OpKind::kSynch)],
            1u);
}

TEST(Machine, GatePassesValueOnTrigger) {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId gate = g.add_gate();
  g.bind_literal({gate, 0}, 123);
  g.connect({s, 0}, {gate, 1}, true);
  const NodeId st = g.add_store(0, "x");
  g.connect({gate, 0}, {st, 0}, false);
  g.connect({gate, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 1, {});
  ASSERT_TRUE(r.stats.completed);
  EXPECT_EQ(r.store.cells[0], 123);
}

TEST(Machine, MemLatencyShapesCycleCount) {
  const auto cycles_with = [](unsigned lat) {
    Graph g;
    const NodeId s = add_start(g, {0});
    const NodeId st = g.add_store(0, "x");
    g.bind_literal({st, 0}, 1);
    g.connect({s, 0}, {st, 1}, true);
    const NodeId e = add_end(g, 1);
    g.connect({st, 0}, {e, 0}, true);
    MachineOptions o;
    o.mem_latency = lat;
    const RunResult r = run(lower(g), 1, o);
    EXPECT_TRUE(r.stats.completed);
    return r.stats.cycles;
  };
  EXPECT_GT(cycles_with(50), cycles_with(1) + 40);
}

TEST(Machine, WidthOneSerializesIndependentOps) {
  const auto run_width = [](unsigned width) {
    Graph g;
    const NodeId s = add_start(g, {0, 0, 0, 0});
    const NodeId sy = g.add_synch(4);
    for (std::uint16_t i = 0; i < 4; ++i) {
      const NodeId st = g.add_store(i, "st");
      g.bind_literal({st, 0}, i + 1);
      g.connect({s, i}, {st, 1}, true);
      g.connect({st, 0}, {sy, i}, true);
    }
    const NodeId e = add_end(g, 1);
    g.connect({sy, 0}, {e, 0}, true);
    MachineOptions o;
    o.width = width;
    const RunResult r = run(lower(g), 4, o);
    EXPECT_TRUE(r.stats.completed);
    return r.stats.cycles;
  };
  EXPECT_GT(run_width(1), run_width(0));
}

TEST(Machine, DeadlockDetected) {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId sy = g.add_synch(2, "starved");
  g.connect({s, 0}, {sy, 0}, true);  // port 1 never receives a token
  // Port 1 needs an arc to pass validation, but its producer (a gate
  // whose trigger never fires) stays silent.
  const NodeId gate = g.add_gate("never");
  g.bind_literal({gate, 0}, 0);
  g.connect({sy, 0}, {gate, 1}, true);  // circular wait
  g.connect({gate, 0}, {sy, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 0, {});
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(r.stats.error_detail.render().find("deadlock"), std::string::npos);
  EXPECT_NE(r.stats.error_detail.render().find("starved"), std::string::npos);
}

TEST(Machine, TokenCollisionDetected) {
  Graph g;
  const NodeId s = add_start(g, {1, 2});
  const NodeId sy = g.add_synch(2, "victim");
  g.connect({s, 0}, {sy, 0}, true);
  g.connect({s, 1}, {sy, 0}, true);  // both tokens hit port 0
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  // Wire port 1 so validation would pass, though nothing ever arrives.
  const NodeId gate = g.add_gate("idle");
  g.bind_literal({gate, 0}, 0);
  g.connect({sy, 0}, {gate, 1}, true);
  g.connect({gate, 0}, {sy, 1}, true);
  const RunResult r = run(lower(g), 0, {});
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(r.stats.error_detail.render().find("collision"), std::string::npos);
}

TEST(Machine, IStructureDeferredReadIsSatisfied) {
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  // Reader fires first (index literal), writer is delayed behind a
  // long chain of gates.
  const NodeId fetch = g.add_ifetch(0, 4, "read");
  g.bind_literal({fetch, 0}, 2);
  g.connect({s, 0}, {fetch, 1}, true);

  dfg::PortRef delay{s, 1};
  for (int i = 0; i < 10; ++i) {
    const NodeId gate = g.add_gate();
    g.bind_literal({gate, 0}, 0);
    g.connect(delay, {gate, 1}, true);
    delay = {gate, 0};
  }
  const NodeId istore = g.add_istore(0, 4, "write");
  g.bind_literal({istore, 0}, 55);
  g.bind_literal({istore, 1}, 2);
  g.connect(delay, {istore, 2}, true);

  const NodeId st = g.add_store(4, "out");
  g.connect({fetch, 0}, {st, 0}, false);
  g.connect({fetch, 0}, {st, 1}, false);
  const NodeId sy = g.add_synch(2);
  g.connect({st, 0}, {sy, 0}, true);
  g.connect({istore, 0}, {sy, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);

  const RunResult r = run(lower(g), 5, {}, {{0, 4}});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[4], 55);
  EXPECT_EQ(r.stats.deferred_reads, 1u);
}

TEST(Machine, IStructureDoubleWriteTrapped) {
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  for (std::uint16_t i = 0; i < 2; ++i) {
    const NodeId istore = g.add_istore(0, 4, "w");
    g.bind_literal({istore, 0}, 9);
    g.bind_literal({istore, 1}, 1);
    g.connect({s, i}, {istore, 2}, true);
    if (i == 0) {
      const NodeId e = add_end(g, 1);
      g.connect({istore, 0}, {e, 0}, true);
    }
  }
  const RunResult r = run(lower(g), 4, {}, {{0, 4}});
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(r.stats.error_detail.render().find("double write"),
            std::string::npos);
}

TEST(Machine, CycleCapReported) {
  // Self-sustaining token loop (merge feeding itself) never terminates,
  // and End's token never arrives (its producer waits on port 1 forever).
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId m = g.add_merge("spin");
  g.connect({s, 0}, {m, 0}, true);
  g.connect({m, 0}, {m, 0}, true);
  const NodeId never = g.add_gate("never");  // self-triggered: silent
  g.bind_literal({never, 0}, 0);
  g.connect({never, 0}, {never, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({never, 0}, {e, 0}, true);
  MachineOptions o;
  o.budget.max_cycles = 500;
  const RunResult r = run(lower(g), 0, o);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_FALSE(r.stats.error_detail.render().empty());
}

TEST(Machine, BenignLeftoverTokensAreCountedNotFatal) {
  // A value token with no consumer chain to End is legal drain traffic.
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId slow = g.add_gate("slow");  // fires after end's path
  g.bind_literal({slow, 0}, 1);
  g.connect({s, 1}, {slow, 1}, true);
  const NodeId sink = g.add_merge("sink");  // output unused
  g.connect({slow, 0}, {sink, 0}, false);
  const NodeId e = add_end(g, 1);
  g.connect({s, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 0, {});
  EXPECT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_GT(r.stats.leftover_tokens, 0u);
}

TEST(Machine, UnfiredStoreAtEndIsFatal) {
  // A store that has not executed when End fires means memory is not
  // final — must be reported. (Start emits ports in order, so End's
  // token is scheduled and fired before the store's permission is
  // consumed.)
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId st = g.add_store(0, "uncollected");
  g.bind_literal({st, 0}, 9);
  g.connect({s, 1}, {st, 1}, true);
  const NodeId sink = g.add_merge("sink");
  g.connect({st, 0}, {sink, 0}, true);
  const NodeId e = add_end(g, 1);
  g.connect({s, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 1, {});
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(r.stats.error_detail.render().find("uncollected"),
            std::string::npos);
}

TEST(Machine, CycleCapReportsCapAsCycleCount) {
  // Same spin graph as CycleCapReported, but pin down the report: the
  // run must stop exactly at the cap, with the canonical message, and
  // the statistics accumulated up to that point must survive.
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId m = g.add_merge("spin");
  g.connect({s, 0}, {m, 0}, true);
  g.connect({m, 0}, {m, 0}, true);
  const NodeId never = g.add_gate("never");
  g.bind_literal({never, 0}, 0);
  g.connect({never, 0}, {never, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({never, 0}, {e, 0}, true);
  MachineOptions o;
  o.budget.max_cycles = 500;
  const RunResult r = run(lower(g), 0, o);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.render(),
            "cycle cap exceeded (possible livelock or "
            "non-terminating program)");
  EXPECT_EQ(r.stats.cycles, 500u);
  // The merge fires once per cycle (alu latency 1), so essentially
  // every capped cycle fired one operator.
  EXPECT_GE(r.stats.ops_fired, 499u);
  EXPECT_EQ(r.stats.fired_by_kind[static_cast<std::size_t>(OpKind::kEnd)],
            0u);
}

TEST(Machine, DeadlockReportListsStarvedSlots) {
  // Same circular wait as DeadlockDetected; check the diagnostic lists
  // the starved slot with its missing-input count.
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId sy = g.add_synch(2, "starved");
  g.connect({s, 0}, {sy, 0}, true);
  const NodeId gate = g.add_gate("never");
  g.bind_literal({gate, 0}, 0);
  g.connect({sy, 0}, {gate, 1}, true);
  g.connect({gate, 0}, {sy, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 0, {});
  const std::string error = r.stats.error_detail.render();
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(error.find("matching slot(s) still waiting"), std::string::npos)
      << error;
  EXPECT_NE(error.find("missing 1 input(s)"), std::string::npos) << error;
  // The report carries the per-loop live/throttled breakdown (and the
  // typed code) even outside loops — the headline line is always there.
  EXPECT_NE(error.find("loop state:"), std::string::npos) << error;
  EXPECT_NE(error.find("live iteration context(s)"), std::string::npos)
      << error;
  EXPECT_NE(error.find("k-bound throttle stall(s)"), std::string::npos)
      << error;
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kDeadlock);
}

TEST(Machine, DeadlockReportIncludesDeferredReaders) {
  // An I-structure read of a cell nobody ever writes leaves a deferred
  // reader and no pending events: deadlock, and the report must point
  // at the deferred read (the usual culprit in write-once programs).
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId fetch = g.add_ifetch(0, 4, "orphan-read");
  g.bind_literal({fetch, 0}, 2);
  g.connect({s, 0}, {fetch, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({fetch, 0}, {e, 0}, true);
  const RunResult r = run(lower(g), 4, {}, {{0, 4}});
  const std::string error = r.stats.error_detail.render();
  EXPECT_FALSE(r.stats.completed);
  EXPECT_NE(error.find("deadlock"), std::string::npos);
  EXPECT_NE(error.find("I-structure cell(s) with deferred readers"),
            std::string::npos)
      << error;
  EXPECT_EQ(r.stats.deferred_reads, 1u);
}

TEST(Machine, KBoundOneRunsLoopSerially) {
  // k = 1 is the throttle's corner: pipelined loop control degenerates
  // to one iteration in flight. Results must still match the
  // interpreter, with the frame footprint pinned at the bound.
  const auto prog = lang::corpus::array_loop(16);
  const auto ref = lang::interpret(prog);
  ASSERT_TRUE(ref.completed);
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.parallel_store_arrays = {"x"};
  const auto cr = core::Pipeline(topt).run(prog);

  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kPipelined;
  mopt.mem_latency = 60;  // stretch iteration lifetimes
  const auto unbounded = core::execute(cr.image, mopt);
  ASSERT_TRUE(unbounded.stats.completed)
      << unbounded.stats.error_detail.render();

  mopt.loop_bound = 1;
  const auto k1 = core::execute(cr.image, mopt);
  ASSERT_TRUE(k1.stats.completed) << k1.stats.error_detail.render();
  EXPECT_EQ(k1.store.cells, ref.store.cells);
  // One iteration in flight (the bound is exact for a flat loop), so
  // nearly every forwarding had to stall at the entry at least once.
  EXPECT_LE(k1.stats.peak_live_contexts, 2u);
  EXPECT_GT(unbounded.stats.peak_live_contexts,
            k1.stats.peak_live_contexts);
  EXPECT_GT(k1.stats.throttle_stalls, 0u);
  EXPECT_GT(k1.stats.cycles, unbounded.stats.cycles);
}

TEST(Machine, ReportRendersHeadlinesAndKinds) {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId st = g.add_store(0, "x");
  g.bind_literal({st, 0}, 5);
  g.connect({s, 0}, {st, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  MachineOptions o;
  o.record_profile = true;
  const RunResult r = run(lower(g), 1, o);
  const std::string report = render_report(r.stats);
  EXPECT_NE(report.find("cycles"), std::string::npos);
  EXPECT_NE(report.find("store=1"), std::string::npos);
  EXPECT_NE(report.find("parallelism timeline"), std::string::npos);
}

TEST(Machine, ReportShowsFailures) {
  RunStats s;
  s.completed = false;
  s.error_detail.message = "synthetic failure";
  EXPECT_NE(render_report(s).find("synthetic failure"), std::string::npos);
}

TEST(Machine, ProfileRecordsFiring) {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId st = g.add_store(0, "x");
  g.bind_literal({st, 0}, 5);
  g.connect({s, 0}, {st, 1}, true);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  MachineOptions o;
  o.record_profile = true;
  const RunResult r = run(lower(g), 1, o);
  ASSERT_TRUE(r.stats.completed);
  std::uint64_t total = 0;
  for (const auto c : r.stats.profile) total += c;
  // start is fired at boot (not inside a profiled cycle); store and end
  // fire within cycles.
  EXPECT_EQ(total + 1, r.stats.ops_fired);
}

}  // namespace
}  // namespace ctdf::machine
