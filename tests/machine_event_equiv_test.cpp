// Differential harness for the event policy: for every swept
// configuration, machine::run (calendar queue + frame recycling) must
// be bit-identical to the scan reference policy — every RunStats
// counter, every per-node first-fire cycle, the per-cycle profile, the
// error text, and the final store. Both policies instantiate one
// SerialEngine template (engine_serial.hpp), so this suite guards the
// pending-queue policies (and the recycling they enable) against
// drift rather than establishing equivalence from scratch.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/compiler.hpp"
#include "dfg/graph.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "lang/parser.hpp"
#include "machine/flags.hpp"
#include "machine/machine.hpp"
#include "support/scan_reference.hpp"

namespace ctdf::machine {
namespace {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

void expect_identical(const RunResult& scan, const RunResult& event,
                      const std::string& context) {
  EXPECT_EQ(scan.stats.completed, event.stats.completed) << context;
  EXPECT_EQ(scan.stats.error_detail.render(),
            event.stats.error_detail.render()) << context;
  EXPECT_EQ(scan.stats.cycles, event.stats.cycles) << context;
  EXPECT_EQ(scan.stats.ops_fired, event.stats.ops_fired) << context;
  EXPECT_EQ(scan.stats.tokens_sent, event.stats.tokens_sent) << context;
  EXPECT_EQ(scan.stats.matches, event.stats.matches) << context;
  EXPECT_EQ(scan.stats.contexts_allocated, event.stats.contexts_allocated)
      << context;
  EXPECT_EQ(scan.stats.mem_reads, event.stats.mem_reads) << context;
  EXPECT_EQ(scan.stats.mem_writes, event.stats.mem_writes) << context;
  EXPECT_EQ(scan.stats.peak_live_contexts, event.stats.peak_live_contexts)
      << context;
  EXPECT_EQ(scan.stats.throttle_stalls, event.stats.throttle_stalls)
      << context;
  EXPECT_EQ(scan.stats.deferred_reads, event.stats.deferred_reads) << context;
  EXPECT_EQ(scan.stats.peak_ready, event.stats.peak_ready) << context;
  EXPECT_EQ(scan.stats.leftover_tokens, event.stats.leftover_tokens)
      << context;
  EXPECT_EQ(scan.stats.fired_by_kind, event.stats.fired_by_kind) << context;
  EXPECT_EQ(scan.stats.first_fire_cycle, event.stats.first_fire_cycle)
      << context;
  EXPECT_EQ(scan.stats.profile, event.stats.profile) << context;
  EXPECT_EQ(scan.store.cells, event.store.cells) << context;
}

/// Runs `image` under the scan reference and machine::run, demanding
/// identity. The scan result is returned for callers' own sanity
/// assertions.
RunResult check_event(const ProgramImage& image, const MachineOptions& mopt,
                      const std::string& context) {
  const RunResult scan = testing::run_scan(image, mopt);
  const RunResult event = core::execute(image, mopt);
  expect_identical(scan, event, context + " policy=event");
  return scan;
}

void sweep_program(const lang::Program& prog,
                   const translate::TranslateOptions& topt,
                   const std::string& context) {
  const auto cr = core::Pipeline(topt).run(prog);
  for (const auto loop_mode : {LoopMode::kBarrier, LoopMode::kPipelined}) {
    for (const std::uint64_t seed : {0ull, 7ull, 99ull}) {
      for (const unsigned width : {0u, 2u}) {
        MachineOptions mopt;
        mopt.loop_mode = loop_mode;
        mopt.scheduler_seed = seed;
        mopt.width = width;
        mopt.mem_latency = seed % 2 ? 1 : 9;
        mopt.record_profile = true;
        const auto res = check_event(
            cr.image, mopt,
            context + " loop=" + to_string(loop_mode) +
                " seed=" + std::to_string(seed) +
                " width=" + std::to_string(width));
        EXPECT_TRUE(res.stats.completed)
            << context << ": " << res.stats.error_detail.render();
      }
    }
  }
}

TEST(EventEquiv, CorpusUnderOptimizedSchema) {
  for (const auto& np : lang::corpus::all())
    sweep_program(lang::parse_or_throw(np.source),
                  translate::TranslateOptions::schema2_optimized(), np.name);
}

TEST(EventEquiv, CorpusUnderMemoryElimination) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.parallel_reads = true;
  for (const auto& np : lang::corpus::all())
    sweep_program(lang::parse_or_throw(np.source), topt, np.name + "/elim");
}

TEST(EventEquiv, IStructuresAndDeferredReads) {
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.istructure_arrays = {"x"};
  sweep_program(lang::corpus::array_loop(10), topt, "array_loop_istruct");
}

TEST(EventEquiv, MultiPePlacementsAndNetworkLatency) {
  // The wheel horizon must absorb the cross-PE hop surcharge.
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::nested_loops_source(4, 5));
  for (const auto placement : {Placement::kByNode, Placement::kByContext}) {
    for (const unsigned processors : {1u, 3u, 16u}) {
      for (const unsigned net : {0u, 2u, 5u}) {
        MachineOptions mopt;
        mopt.loop_mode = LoopMode::kPipelined;
        mopt.processors = processors;
        mopt.placement = placement;
        mopt.network_latency = net;
        mopt.record_profile = true;
        const auto res = check_event(
            cr.image, mopt,
            std::string("nested_loops pe=") + std::to_string(processors) +
                " placement=" + to_string(placement) +
                " net=" + std::to_string(net));
        EXPECT_TRUE(res.stats.completed) << res.stats.error_detail.render();
      }
    }
  }
}

TEST(EventEquiv, KBoundedLoops) {
  // Stall re-delivery lands at cycle + 1 — the wheel's shortest slot.
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::array_loop(16));
  for (const unsigned k : {1u, 2u, 4u}) {
    for (const std::uint64_t seed : {0ull, 5ull}) {
      MachineOptions mopt;
      mopt.loop_mode = LoopMode::kPipelined;
      mopt.loop_bound = k;
      mopt.scheduler_seed = seed;
      const auto res = check_event(cr.image, mopt,
                                   "array_loop k=" + std::to_string(k) +
                                       " seed=" + std::to_string(seed));
      EXPECT_TRUE(res.stats.completed) << res.stats.error_detail.render();
      if (k == 1) {
        EXPECT_GT(res.stats.throttle_stalls, 0u);
      }
    }
  }
}

TEST(EventEquiv, RandomPrograms) {
  for (std::uint64_t gseed = 0; gseed < 6; ++gseed) {
    lang::GeneratorOptions gopt;
    gopt.allow_unstructured = true;
    gopt.allow_aliasing = true;
    gopt.num_arrays = 1;
    gopt.max_toplevel_stmts = 8;
    const auto prog = lang::generate_program(gopt, gseed);
    auto topt = translate::TranslateOptions::schema2_optimized();
    topt.parallel_reads = true;
    const auto cr = core::Pipeline(topt).run(prog);
    for (const std::uint64_t seed : {0ull, 3ull}) {
      MachineOptions mopt;
      mopt.loop_mode = LoopMode::kPipelined;
      mopt.scheduler_seed = seed;
      mopt.width = 3;
      check_event(cr.image, mopt,
                  "gen seed=" + std::to_string(gseed) +
                      " sched=" + std::to_string(seed));
    }
  }
}

TEST(EventEquiv, LatencyFlagsPastTheWheelBoundAreRejected) {
  // Every run takes the calendar wheel, and the latency flags keep its
  // horizon bounded: an absurd latency is a typed bad value.
  MachineOptions mopt;
  for (const char* flag :
       {"--mem-latency=0", "--mem-latency=65537", "--mem-latency=2097152",
        "--network-latency=65537", "--network-latency=4294967296"})
    EXPECT_EQ(apply_machine_flag(mopt, flag), MachineFlagParse::kBadValue)
        << flag;
  EXPECT_EQ(apply_machine_flag(mopt, "--mem-latency=65536"),
            MachineFlagParse::kApplied);
  EXPECT_EQ(apply_machine_flag(mopt, "--network-latency=65536"),
            MachineFlagParse::kApplied);
  EXPECT_EQ(mopt.mem_latency, kMaxLatency);
  EXPECT_EQ(mopt.network_latency, kMaxLatency);
}

TEST(EventEquiv, LargestAcceptedLatenciesMatchScan) {
  // The widest wheel any accepted option set asks for: both latencies
  // at the bound, on two PEs so cross-PE hops add the network latency.
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::running_example());
  MachineOptions mopt;
  mopt.mem_latency = kMaxLatency;
  mopt.network_latency = kMaxLatency;
  mopt.processors = 2;
  const RunResult scan = check_event(cr.image, mopt, "largest latencies");
  EXPECT_TRUE(scan.stats.completed) << scan.stats.error_detail.render();
}

// ---- error-path identity: diagnostics (including their text, which
// depends on leftover-token iteration order) must not depend on the
// pending-queue policy.

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

RunResult check_graph_event(const Graph& g, std::size_t cells,
                            const MachineOptions& mopt,
                            const std::vector<lang::CellRegion>& is,
                            const std::string& context) {
  const ExecProgram p = lower(g);
  const RunResult scan = testing::run_scan(p, cells, mopt, is);
  const RunResult event = run(p, cells, mopt, is);
  expect_identical(scan, event, context + " policy=event");
  return scan;
}

TEST(EventEquiv, DeadlockReportIsIdentical) {
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
  check_graph_event(g, 0, {}, {}, "deadlock");
}

TEST(EventEquiv, CollisionReportIsIdentical) {
  Graph g;
  const NodeId s = add_start(g, {1, 2});
  const NodeId sy = g.add_synch(2, "victim");
  g.connect({s, 0}, {sy, 0}, true);
  g.connect({s, 1}, {sy, 0}, true);
  const NodeId e = add_end(g, 1);
  g.connect({sy, 0}, {e, 0}, true);
  const NodeId gate = g.add_gate("idle");
  g.bind_literal({gate, 0}, 0);
  g.connect({sy, 0}, {gate, 1}, true);
  g.connect({gate, 0}, {sy, 1}, true);
  check_graph_event(g, 0, {}, {}, "collision");
}

TEST(EventEquiv, DoubleWriteReportIsIdentical) {
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
  check_graph_event(g, 4, {}, {{0, 4}}, "double-write");
}

TEST(EventEquiv, UnfiredStoreReportIsIdentical) {
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId st = g.add_store(0, "uncollected");
  g.bind_literal({st, 0}, 9);
  g.connect({s, 1}, {st, 1}, true);
  const NodeId sink = g.add_merge("sink");
  g.connect({st, 0}, {sink, 0}, true);
  const NodeId e = add_end(g, 1);
  g.connect({s, 0}, {e, 0}, true);
  check_graph_event(g, 1, {}, {}, "unfired-store");
}

TEST(EventEquiv, CycleCapReportIsIdentical) {
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
  o.record_profile = true;
  check_graph_event(g, 0, o, {}, "cycle-cap");
}

// ---- token-drain accounting after End: tokens legally still in flight
// when End fires (dead value chains) must be counted as leftovers, and
// the operators they were bound for must NOT count as firings — under
// either policy, whether the token was sitting in the ready pool or
// still in the pending queue.

TEST(EventEquiv, DrainedReadyTokenDoesNotCountAsFiring) {
  // start.0 → end fires first; start.1 → gate is ready but never fires.
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId e = add_end(g, 1);
  g.connect({s, 0}, {e, 0}, true);
  const NodeId gate = g.add_gate("slow");
  g.bind_literal({gate, 0}, 1);
  g.connect({s, 1}, {gate, 1}, true);
  const NodeId sink = g.add_merge("sink");
  g.connect({gate, 0}, {sink, 0}, false);

  const RunResult scan = check_graph_event(g, 0, {}, {}, "ready-drain");
  ASSERT_TRUE(scan.stats.completed) << scan.stats.error_detail.render();
  // Only start and end fired; the gate's token drained unfired.
  EXPECT_EQ(scan.stats.ops_fired, 2u);
  EXPECT_EQ(scan.stats.leftover_tokens, 1u);
  EXPECT_EQ(scan.stats.fired_by_kind[static_cast<std::size_t>(OpKind::kGate)],
            0u);
}

TEST(EventEquiv, DrainedPendingTokenDoesNotCountAsFiring) {
  // The load fires before End does, so its value token is deep in the
  // pending queue when the run completes: the leftover count must find
  // it there (the wheel's ring scan vs the scan policy's map walk).
  Graph g;
  const NodeId s = add_start(g, {0, 0});
  const NodeId load = g.add_load(0, "fires");
  g.connect({s, 0}, {load, 0}, true);
  const NodeId sink = g.add_merge("sink");
  g.connect({load, dfg::port::kLoadValue}, {sink, 0}, false);
  const NodeId e = add_end(g, 1);
  g.connect({s, 1}, {e, 0}, true);

  MachineOptions o;
  o.mem_latency = 7;
  const RunResult scan = check_graph_event(g, 1, o, {}, "pending-drain");
  ASSERT_TRUE(scan.stats.completed) << scan.stats.error_detail.render();
  // start, load, and end fired; the sink merge's token is still seven
  // cycles out when End fires and must not become a merge firing.
  EXPECT_EQ(scan.stats.ops_fired, 3u);
  EXPECT_EQ(scan.stats.leftover_tokens, 1u);
  EXPECT_EQ(scan.stats.fired_by_kind[static_cast<std::size_t>(OpKind::kMerge)],
            0u);
}

/// Leaves freed heap filled with 0xA5: allocates blocks the size of a
/// frame arena chunk (64 KiB, below malloc's mmap threshold), writes
/// the pattern and frees them. A small block allocated after them keeps
/// them off the top of the heap, so the allocator reuses them rather
/// than returning them to the system; the caller frees it.
void* dirty_heap() {
  constexpr std::size_t kBlock = 64 * 1024;
  void* blocks[8];
  for (void*& b : blocks) {
    b = std::malloc(kBlock);
    // Volatile stores: a memset into memory about to be freed is dead
    // code the optimizer may drop.
    auto* w = static_cast<volatile std::uint64_t*>(b);
    for (std::size_t i = 0; i < kBlock / 8; ++i) w[i] = 0xA5A5A5A5A5A5A5A5ull;
  }
  void* guard = std::malloc(64);
  for (void* b : blocks) std::free(b);
  return guard;
}

// FrameStore does not zero its arena chunks: it sets a frame's presence
// and state words when it carves the frame out, and every value slot is
// written before it is read. ASan and UBSan do not report reads of
// uninitialised memory, so run the corpus on a heap left dirty and
// demand the results of a run on a clean one.
TEST(EventEquiv, DirtyHeapGivesTheCleanResults) {
  auto mem_elim = translate::TranslateOptions::schema2_optimized();
  mem_elim.eliminate_memory = true;
  mem_elim.parallel_reads = true;
  const std::vector<std::pair<const char*, translate::TranslateOptions>>
      translations = {
          {"default", translate::TranslateOptions::schema2_optimized()},
          {"mem-elim", mem_elim},
      };
  for (const auto& np : lang::corpus::all()) {
    const lang::Program prog = lang::parse_or_throw(np.source);
    for (const auto& [tname, topt] : translations) {
      const auto cr = core::Pipeline(topt).run(prog);
      for (const auto loop_mode : {LoopMode::kBarrier, LoopMode::kPipelined}) {
        for (const unsigned processors : {0u, 3u}) {
          MachineOptions mopt;
          mopt.loop_mode = loop_mode;
          mopt.processors = processors;
          mopt.record_profile = true;
          const std::string context =
              np.name + "/" + tname + " loop=" + to_string(loop_mode) +
              " pe=" + std::to_string(processors);
          const RunResult clean = core::execute(cr.image, mopt);
          EXPECT_TRUE(clean.stats.completed)
              << context << ": " << clean.stats.error_detail.render();
          void* guard = dirty_heap();
          const RunResult dirty = core::execute(cr.image, mopt);
          std::free(guard);
          expect_identical(clean, dirty, context + " dirty heap");
        }
      }
    }
  }
}

}  // namespace
}  // namespace ctdf::machine
