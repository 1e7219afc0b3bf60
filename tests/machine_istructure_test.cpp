// I-structure deferral edges on hand-built graphs, pinned down under
// both pending-queue policies: a read arriving before the write waits
// in the deferral map and resolves when the write lands — even when
// that resolution is the run's final act, when several readers queue
// on one cell, and when the reading iteration's context has already
// retired (and, under the event policy, had its frame recycled) by the
// time the value arrives.
#include <gtest/gtest.h>

#include <string>

#include "dfg/graph.hpp"
#include "machine/machine.hpp"
#include "support/scan_reference.hpp"

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

/// machine::run and the scan reference must complete with identical
/// stats and stores; returns the scan result for further assertions.
RunResult run_both_policies(const Graph& g, std::size_t cells,
                            const MachineOptions& mopt,
                            const std::vector<lang::CellRegion>& is) {
  const ExecProgram p = lower(g);
  const RunResult scan = testing::run_scan(p, cells, mopt, is);
  const RunResult event = run(p, cells, mopt, is);
  EXPECT_EQ(scan.stats.completed, event.stats.completed);
  EXPECT_EQ(scan.stats.error_detail.render(),
            event.stats.error_detail.render());
  EXPECT_EQ(scan.stats.cycles, event.stats.cycles);
  EXPECT_EQ(scan.stats.ops_fired, event.stats.ops_fired);
  EXPECT_EQ(scan.stats.deferred_reads, event.stats.deferred_reads);
  EXPECT_EQ(scan.stats.leftover_tokens, event.stats.leftover_tokens);
  EXPECT_EQ(scan.store.cells, event.store.cells);
  return scan;
}

TEST(IStructureDeferral, ReadBeforeWriteResolvesAtFinalDrain) {
  // The ifetch fires at cycle 0 and defers; the istore is held back by
  // a gate chain, so the write — and the deferred read's resolution —
  // is the last event in flight. cell 0 is the I-structure; the read
  // value lands in cell 1.
  Graph g;
  const NodeId s = add_start(g, {0, 1});

  const NodeId fetch = g.add_ifetch(0, 1, "early-read");
  g.bind_literal({fetch, 0}, 0);  // index
  g.connect({s, 0}, {fetch, 1}, true);

  const NodeId st = g.add_store(1, "result");
  g.connect({fetch, 0}, {st, 0}, false);
  g.connect({fetch, 0}, {st, 1}, false);

  // Delay the write by three gate hops.
  NodeId prev = s;
  std::uint16_t prev_port = 1;
  for (int i = 0; i < 3; ++i) {
    const NodeId gate = g.add_gate("delay");
    g.bind_literal({gate, 0}, 1);
    g.connect({prev, prev_port}, {gate, 1}, true);
    prev = gate;
    prev_port = 0;
  }
  const NodeId istore = g.add_istore(0, 1, "late-write");
  g.bind_literal({istore, 0}, 42);  // value
  g.bind_literal({istore, 1}, 0);   // index
  g.connect({prev, prev_port}, {istore, 2}, true);

  const NodeId e = add_end(g, 2);
  g.connect({st, 0}, {e, 0}, true);
  g.connect({istore, 0}, {e, 1}, true);

  for (const unsigned mem_latency : {1u, 9u}) {
    MachineOptions o;
    o.mem_latency = mem_latency;
    const RunResult r = run_both_policies(g, 2, o, {{0, 1}});
    ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
    EXPECT_EQ(r.stats.deferred_reads, 1u);
    EXPECT_EQ(r.store.cells[0], 42);
    EXPECT_EQ(r.store.cells[1], 42);
  }
}

TEST(IStructureDeferral, MultipleDeferredReadersOnOneCell) {
  // Two independent reads queue on the empty cell; one write must wake
  // both, in deferral order, and End collects all three store acks.
  Graph g;
  const NodeId s = add_start(g, {0, 0, 1});
  const NodeId e = add_end(g, 3);

  for (std::uint16_t i = 0; i < 2; ++i) {
    const NodeId fetch = g.add_ifetch(0, 1, "reader");
    g.bind_literal({fetch, 0}, 0);
    g.connect({s, i}, {fetch, 1}, true);
    const NodeId st = g.add_store(1 + i, "out");
    g.connect({fetch, 0}, {st, 0}, false);
    g.connect({fetch, 0}, {st, 1}, false);
    g.connect({st, 0}, {e, i}, true);
  }

  const NodeId gate = g.add_gate("delay");
  g.bind_literal({gate, 0}, 1);
  g.connect({s, 2}, {gate, 1}, true);
  const NodeId istore = g.add_istore(0, 1, "write");
  g.bind_literal({istore, 0}, 7);
  g.bind_literal({istore, 1}, 0);
  g.connect({gate, 0}, {istore, 2}, true);
  g.connect({istore, 0}, {e, 2}, true);

  const RunResult r = run_both_policies(g, 3, {}, {{0, 1}});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.stats.deferred_reads, 2u);
  EXPECT_EQ(r.store.cells[0], 7);
  EXPECT_EQ(r.store.cells[1], 7);
  EXPECT_EQ(r.store.cells[2], 7);
}

/// A counted loop of three iterations; the first iteration issues an
/// ifetch of a cell that is only written after the loop has finished.
///
///   start(0) → le → inc → {cmp<3 → sw back/exit, cmp==1 → sw2 →
///   ifetch(cell0) deferred} ; exit v=3 → istore(cell0) → resolves →
///   ifetch value → lx2 → store(cell1) ; End ← both acks.
Graph retirement_loop_graph() {
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId le = g.add_loop_entry(cfg::LoopId{0u}, 1, "L");
  g.connect({s, 0}, {le, 0}, false);

  const NodeId inc = g.add_binop(lang::BinOp::kAdd, "v+1");
  g.connect({le, 0}, {inc, 0}, false);
  g.bind_literal({inc, 1}, 1);

  const NodeId cmp = g.add_binop(lang::BinOp::kLt, "v<3");
  g.connect({inc, 0}, {cmp, 0}, false);
  g.bind_literal({cmp, 1}, 3);
  const NodeId sw = g.add_switch("sw");
  g.connect({inc, 0}, {sw, dfg::port::kSwitchData}, false);
  g.connect({cmp, 0}, {sw, dfg::port::kSwitchPred}, false);
  g.connect({sw, dfg::port::kSwitchTrue}, {le, 0}, false);  // back edge

  // First iteration only: trigger the deferred read.
  const NodeId first = g.add_binop(lang::BinOp::kEq, "v==1");
  g.connect({inc, 0}, {first, 0}, false);
  g.bind_literal({first, 1}, 1);
  const NodeId sw2 = g.add_switch("sw2");
  g.connect({inc, 0}, {sw2, dfg::port::kSwitchData}, false);
  g.connect({first, 0}, {sw2, dfg::port::kSwitchPred}, false);
  const NodeId fetch = g.add_ifetch(0, 1, "read-ahead");
  g.bind_literal({fetch, 0}, 0);
  g.connect({sw2, dfg::port::kSwitchTrue}, {fetch, 1}, false);

  // The deferred value leaves the (retired) iteration context through
  // its own loop exit and is stored in cell 1.
  const NodeId lx2 = g.add_loop_exit(cfg::LoopId{0u}, 1, "X2");
  g.connect({fetch, 0}, {lx2, 0}, false);
  const NodeId st = g.add_store(1, "witness");
  g.connect({lx2, 0}, {st, 0}, false);
  g.connect({lx2, 0}, {st, 1}, false);

  // Loop exit: final v = 3 becomes the I-structure write.
  const NodeId lx = g.add_loop_exit(cfg::LoopId{0u}, 1, "X");
  g.connect({sw, dfg::port::kSwitchFalse}, {lx, 0}, false);
  const NodeId istore = g.add_istore(0, 1, "after-loop");
  g.connect({lx, 0}, {istore, 0}, false);  // value = 3
  g.bind_literal({istore, 1}, 0);
  g.connect({lx, 0}, {istore, 2}, false);  // trigger

  const NodeId e = add_end(g, 2);
  g.connect({st, 0}, {e, 0}, true);
  g.connect({istore, 0}, {e, 1}, true);
  return g;
}

TEST(IStructureDeferral, DeferredReadSurvivesContextRetirement) {
  // The issuing iteration's context retires (last live token consumed —
  // the event policy recycles its frame) long before the write lands;
  // the resolution then revives the retired context, and the loop-exit
  // retags the value into the invocation context.
  const Graph g = retirement_loop_graph();
  for (const auto loop_mode : {LoopMode::kBarrier, LoopMode::kPipelined}) {
    MachineOptions o;
    o.loop_mode = loop_mode;
    const RunResult r = run_both_policies(g, 2, o, {{0, 1}});
    ASSERT_TRUE(r.stats.completed)
        << to_string(loop_mode) << ": " << r.stats.error_detail.render();
    EXPECT_EQ(r.stats.deferred_reads, 1u) << to_string(loop_mode);
    EXPECT_EQ(r.stats.contexts_allocated, 3u) << to_string(loop_mode);
    EXPECT_EQ(r.store.cells[0], 3) << to_string(loop_mode);
    EXPECT_EQ(r.store.cells[1], 3) << to_string(loop_mode);
  }
}

TEST(IStructureDeferral, DeferredReadersSurviveFrameCapacityUnderChecking) {
  // The deferral machinery under back-pressure, with --check=integrity
  // certifying every delivery: a finite frame store bounds the loop
  // while a deferred read pins its issuing context. The capacity stall
  // must neither lose the deferred response nor trigger a false
  // integrity violation.
  const Graph g = retirement_loop_graph();
  MachineOptions o;
  o.check = CheckMode::kIntegrity;
  o.processors = 2;
  o.frame_capacity = 2;
  const RunResult r = run_both_policies(g, 2, o, {{0, 1}});
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_GT(r.stats.integrity_checks, 0u);
  EXPECT_EQ(r.stats.deferred_reads, 1u);
  EXPECT_EQ(r.store.cells[0], 3);
  EXPECT_EQ(r.store.cells[1], 3);
}

TEST(IStructureDeferral, PinnedDeferredReaderDiagnosedOnFrameExhaustion) {
  // One frame is too few: the deferred read pins the first iteration's
  // context, so the loop's next forwarding can never acquire a frame
  // and no context can retire to release one. The failure must carry
  // the typed frame-exhausted code and the diagnosis must point at the
  // pinned deferred reader — the one fact that distinguishes this
  // deadlock from a mis-sized k-bound.
  const Graph g = retirement_loop_graph();
  MachineOptions o;
  o.check = CheckMode::kIntegrity;
  o.frame_capacity = 1;
  const RunResult r = run_both_policies(g, 2, o, {{0, 1}});
  ASSERT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kFrameExhausted)
      << r.stats.error_detail.render();
  EXPECT_NE(r.stats.error_detail.render().find("deferred reader"),
            std::string::npos)
      << r.stats.error_detail.render();
}

}  // namespace
}  // namespace ctdf::machine
