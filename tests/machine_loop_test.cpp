// Direct tests of the machine's loop-context mechanics on hand-built
// graphs: barrier vs pipelined entry, per-iteration contexts, exit
// retagging, and nested invocation contexts. These pin down the
// contract the translator relies on, independent of any translation.
#include <gtest/gtest.h>

#include "dfg/graph.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"

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

/// A hand-built counted loop over one value token:
///   start(v=0) → le → [v+1] → switch(v < trips) → (T: back to le,
///   F: exit) → store → end
/// Returns the built graph; `store_cell` receives the final value.
struct CountLoop {
  Graph g;
  NodeId le, lx;

  explicit CountLoop(std::int64_t trips) {
    const NodeId s = add_start(g, {0});
    le = g.add_loop_entry(cfg::LoopId{0u}, 1, "L");
    g.connect({s, 0}, {le, 0}, false);

    const NodeId inc = g.add_binop(lang::BinOp::kAdd, "v+1");
    g.connect({le, 0}, {inc, 0}, false);
    g.bind_literal({inc, 1}, 1);

    const NodeId cmp = g.add_binop(lang::BinOp::kLt, "v<t");
    g.connect({inc, 0}, {cmp, 0}, false);
    g.bind_literal({cmp, 1}, trips);

    const NodeId sw = g.add_switch("sw");
    g.connect({inc, 0}, {sw, dfg::port::kSwitchData}, false);
    g.connect({cmp, 0}, {sw, dfg::port::kSwitchPred}, false);
    g.connect({sw, dfg::port::kSwitchTrue}, {le, 0}, false);  // back edge

    lx = g.add_loop_exit(cfg::LoopId{0u}, 1, "X");
    g.connect({sw, dfg::port::kSwitchFalse}, {lx, 0}, false);

    const NodeId st = g.add_store(0, "out");
    g.connect({lx, 0}, {st, 0}, false);
    g.connect({lx, 0}, {st, 1}, false);
    const NodeId e = add_end(g, 1);
    g.connect({st, 0}, {e, 0}, true);
  }
};

class LoopModes : public ::testing::TestWithParam<LoopMode> {};

TEST_P(LoopModes, CountedLoopComputesTripCount) {
  CountLoop loop(7);
  ASSERT_TRUE(loop.g.validate().empty());
  MachineOptions o;
  o.loop_mode = GetParam();
  const RunResult r = run(lower(loop.g), 1, o);
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 7);
  // One context per iteration (the final iteration exits without
  // starting context 8).
  EXPECT_EQ(r.stats.contexts_allocated, 7u);
}

TEST_P(LoopModes, ZeroTripLoopStillExits) {
  // trips = 1: first iteration immediately exits.
  CountLoop loop(1);
  MachineOptions o;
  o.loop_mode = GetParam();
  const RunResult r = run(lower(loop.g), 1, o);
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();
  EXPECT_EQ(r.store.cells[0], 1);
  EXPECT_EQ(r.stats.contexts_allocated, 1u);
}

INSTANTIATE_TEST_SUITE_P(Both, LoopModes,
                         ::testing::Values(LoopMode::kBarrier,
                                           LoopMode::kPipelined),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(LoopContexts, BarrierEntryWaitsForAllPorts) {
  // Two circulating tokens; one is delayed through a long gate chain.
  // Under barrier control the loop entry must not start iteration 2
  // until both iteration-1 tokens returned: contexts stay in lockstep.
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId le = g.add_loop_entry(cfg::LoopId{0u}, 2, "L");
  g.connect({s, 0}, {le, 0}, false);
  g.connect({s, 1}, {le, 1}, false);

  // Port 0: fast increment; port 1: slow identity (3 gates).
  const NodeId inc = g.add_binop(lang::BinOp::kAdd, "i+1");
  g.connect({le, 0}, {inc, 0}, false);
  g.bind_literal({inc, 1}, 1);
  dfg::PortRef slow{le, 1};
  for (int i = 0; i < 3; ++i) {
    const NodeId gate = g.add_gate("slow");
    g.connect(slow, {gate, 0}, false);
    g.connect(slow, {gate, 1}, false);
    slow = {gate, 0};
  }
  const NodeId cmp = g.add_binop(lang::BinOp::kLt, "i<4");
  g.connect({inc, 0}, {cmp, 0}, false);
  g.bind_literal({cmp, 1}, 4);

  const NodeId sw0 = g.add_switch("sw0");
  g.connect({inc, 0}, {sw0, dfg::port::kSwitchData}, false);
  g.connect({cmp, 0}, {sw0, dfg::port::kSwitchPred}, false);
  const NodeId sw1 = g.add_switch("sw1");
  g.connect(slow, {sw1, dfg::port::kSwitchData}, false);
  g.connect({cmp, 0}, {sw1, dfg::port::kSwitchPred}, false);

  g.connect({sw0, dfg::port::kSwitchTrue}, {le, 0}, false);
  g.connect({sw1, dfg::port::kSwitchTrue}, {le, 1}, false);

  const NodeId lx = g.add_loop_exit(cfg::LoopId{0u}, 2, "X");
  g.connect({sw0, dfg::port::kSwitchFalse}, {lx, 0}, false);
  g.connect({sw1, dfg::port::kSwitchFalse}, {lx, 1}, false);

  const NodeId st = g.add_store(0, "out");
  g.connect({lx, 0}, {st, 0}, false);
  g.connect({lx, 0}, {st, 1}, false);
  const NodeId sy = g.add_synch(2);
  g.connect({st, 0}, {sy, 0}, true);
  g.connect({lx, 1}, {sy, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  ASSERT_TRUE(g.validate().empty());

  MachineOptions barrier, pipelined;
  barrier.loop_mode = LoopMode::kBarrier;
  pipelined.loop_mode = LoopMode::kPipelined;
  const RunResult rb = run(lower(g), 1, barrier);
  const RunResult rp = run(lower(g), 1, pipelined);
  ASSERT_TRUE(rb.stats.completed) << rb.stats.error_detail.render();
  ASSERT_TRUE(rp.stats.completed) << rp.stats.error_detail.render();
  EXPECT_EQ(rb.store.cells[0], 4);
  EXPECT_EQ(rp.store.cells[0], 4);
  // Pipelined entry lets the fast chain run ahead of the slow one:
  // fewer cycles than the barrier, same answer.
  EXPECT_LT(rp.stats.cycles, rb.stats.cycles);
}

TEST(LoopContexts, NestedLoopsGetDistinctInvocationContexts) {
  // Outer counted loop around an inner counted loop: the inner loop is
  // re-invoked once per outer iteration, each time from a different
  // invocation context. total = outer(3) + inner(3 per outer * 2) = 9.
  Graph g;
  const NodeId s = add_start(g, {0});
  const NodeId ole = g.add_loop_entry(cfg::LoopId{0u}, 1, "outer");
  g.connect({s, 0}, {ole, 0}, false);

  const NodeId oinc = g.add_binop(lang::BinOp::kAdd, "o+1");
  g.connect({ole, 0}, {oinc, 0}, false);
  g.bind_literal({oinc, 1}, 1);

  // Inner loop: multiplies the outer value by 2^2 via two doublings.
  const NodeId ile = g.add_loop_entry(cfg::LoopId{1u}, 1, "inner");
  // Encode (value, count) in one token: value*16 + count.
  const NodeId pack = g.add_binop(lang::BinOp::kMul, "pack");
  g.connect({oinc, 0}, {pack, 0}, false);
  g.bind_literal({pack, 1}, 16);
  g.connect({pack, 0}, {ile, 0}, false);

  const NodeId bump = g.add_binop(lang::BinOp::kAdd, "count+1");
  g.connect({ile, 0}, {bump, 0}, false);
  g.bind_literal({bump, 1}, 1);
  const NodeId icmp = g.add_binop(lang::BinOp::kMod, "count");
  g.connect({bump, 0}, {icmp, 0}, false);
  g.bind_literal({icmp, 1}, 16);
  const NodeId itest = g.add_binop(lang::BinOp::kLt, "count<2");
  g.connect({icmp, 0}, {itest, 0}, false);
  g.bind_literal({itest, 1}, 2);

  const NodeId isw = g.add_switch("isw");
  g.connect({bump, 0}, {isw, dfg::port::kSwitchData}, false);
  g.connect({itest, 0}, {isw, dfg::port::kSwitchPred}, false);
  g.connect({isw, dfg::port::kSwitchTrue}, {ile, 0}, false);
  const NodeId ilx = g.add_loop_exit(cfg::LoopId{1u}, 1, "ix");
  g.connect({isw, dfg::port::kSwitchFalse}, {ilx, 0}, false);

  // Unpack: v = token / 16 (count folded away).
  const NodeId unpack = g.add_binop(lang::BinOp::kDiv, "unpack");
  g.connect({ilx, 0}, {unpack, 0}, false);
  g.bind_literal({unpack, 1}, 16);

  const NodeId otest = g.add_binop(lang::BinOp::kLt, "o<3");
  g.connect({unpack, 0}, {otest, 0}, false);
  g.bind_literal({otest, 1}, 3);
  const NodeId osw = g.add_switch("osw");
  g.connect({unpack, 0}, {osw, dfg::port::kSwitchData}, false);
  g.connect({otest, 0}, {osw, dfg::port::kSwitchPred}, false);
  g.connect({osw, dfg::port::kSwitchTrue}, {ole, 0}, false);
  const NodeId olx = g.add_loop_exit(cfg::LoopId{0u}, 1, "ox");
  g.connect({osw, dfg::port::kSwitchFalse}, {olx, 0}, false);

  const NodeId st = g.add_store(0, "out");
  g.connect({olx, 0}, {st, 0}, false);
  g.connect({olx, 0}, {st, 1}, false);
  const NodeId e = add_end(g, 1);
  g.connect({st, 0}, {e, 0}, true);
  ASSERT_TRUE(g.validate().empty());

  for (const auto mode : {LoopMode::kBarrier, LoopMode::kPipelined}) {
    MachineOptions o;
    o.loop_mode = mode;
    const RunResult r = run(lower(g), 1, o);
    ASSERT_TRUE(r.stats.completed) << to_string(mode) << ": "
                                   << r.stats.error_detail.render();
    EXPECT_EQ(r.store.cells[0], 3);
    // 3 outer iterations + 2 inner iterations per outer invocation.
    EXPECT_EQ(r.stats.contexts_allocated, 3u + 3u * 2u) << to_string(mode);
  }
}

}  // namespace
}  // namespace ctdf::machine
