// The mutation gauntlet behind --check=integrity: each test seeds one
// translator defect into a lowered program (machine/mutate.hpp) and
// asserts a checked run fails with the matching typed error code under
// every variant below. This is the proof the checker is not vacuous — the
// unmutated programs run checked and violation-free in the same file,
// so each mutation is exactly one invariant away from a clean
// certificate.
#include <gtest/gtest.h>

#include <string>

#include "core/compiler.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"
#include "machine/mutate.hpp"
#include "support/scan_reference.hpp"

namespace ctdf::machine {
namespace {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

/// The simulator configuration axes the checker must be blind to: the
/// pending-queue policy (machine::run or the scan reference) and the
/// number of simulated PEs.
struct Variant {
  const char* name;
  bool scan;
  unsigned processors;
};

constexpr Variant kVariants[] = {
    {"scan", true, 0},
    {"event", false, 0},
    {"event/2pe", false, 2},
};

MachineOptions checked_options(const Variant& v) {
  MachineOptions o;
  o.check = CheckMode::kIntegrity;
  o.processors = v.processors;
  return o;
}

/// Runs a lowered program under `v`'s policy.
RunResult run_variant(const Variant& v, const ExecProgram& p,
                      std::size_t cells, const MachineOptions& o,
                      const std::vector<lang::CellRegion>& is = {}) {
  return v.scan ? testing::run_scan(p, cells, o, is) : run(p, cells, o, is);
}

/// A loop whose mem-elim translation exercises every generic mutation
/// site: gates (the constant assignments), a two-token-input binop
/// (x + i), and multi-arc fan-outs.
const char* kLoopSource = R"(var i, x;
  x := 0;
  i := 0;
loop:
  x := x + i;
  i := i + 1;
  if i < 4 then goto loop else goto done;
done:
  x := 7;
)";

struct Compiled {
  ExecProgram exec;
  std::size_t cells = 0;
};

Compiled compile_loop() {
  translate::TranslateOptions topt =
      translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  core::CompileResult cr = core::Pipeline(topt).run(kLoopSource);
  return {std::move(cr.image.exec),
          static_cast<std::size_t>(cr.image.memory_cells)};
}

/// Applies `m` to a fresh lowering of the loop program and runs it
/// checked under every variant, asserting the expected failure code
/// (and, variant-blindness, that all variants agree).
void expect_mutation_caught(Mutation m, ErrorCode expected) {
  Compiled c = compile_loop();
  ASSERT_TRUE(apply_mutation(c.exec, m)) << to_string(m) << ": no site";
  for (const Variant& v : kVariants) {
    const RunResult r = run_variant(v, c.exec, c.cells, checked_options(v));
    EXPECT_FALSE(r.stats.completed) << v.name << ": " << to_string(m);
    EXPECT_EQ(r.stats.error_detail.code, expected)
        << v.name << ": " << to_string(m) << " reported ["
        << code_slug(r.stats.error_detail.code) << "] "
        << r.stats.error_detail.render();
  }
}

TEST(IntegrityMutation, UnmutatedLoopRunsViolationFree) {
  const Compiled c = compile_loop();
  std::uint64_t checks = 0;
  for (const Variant& v : kVariants) {
    const RunResult r = run_variant(v, c.exec, c.cells, checked_options(v));
    ASSERT_TRUE(r.stats.completed)
        << v.name << ": " << r.stats.error_detail.render();
    EXPECT_GT(r.stats.integrity_checks, 0u) << v.name;
    // The certificate is variant-independent: every variant performs
    // the same checks because they share the firing core.
    if (checks == 0)
      checks = r.stats.integrity_checks;
    else
      EXPECT_EQ(r.stats.integrity_checks, checks) << v.name;
  }
}

TEST(IntegrityMutation, DuplicatedFanoutArcIsDoubleWrite) {
  expect_mutation_caught(Mutation::kDupFanoutArc,
                         ErrorCode::kIntegrityDoubleWrite);
}

TEST(IntegrityMutation, MiswiredFanoutPortIsDoubleWrite) {
  expect_mutation_caught(Mutation::kMiswireFanoutPort,
                         ErrorCode::kIntegrityDoubleWrite);
}

TEST(IntegrityMutation, DroppedGateArcIsDeadlock) {
  expect_mutation_caught(Mutation::kDropGateArc, ErrorCode::kDeadlock);
}

TEST(IntegrityMutation, UndercountedArityIsReadEmpty) {
  expect_mutation_caught(Mutation::kUndercountArity,
                         ErrorCode::kIntegrityReadEmpty);
}

TEST(IntegrityMutation, DoubleWriteDiagnosisNamesTheSlot) {
  Compiled c = compile_loop();
  ASSERT_TRUE(apply_mutation(c.exec, Mutation::kDupFanoutArc));
  MachineOptions o = checked_options(kVariants[1]);
  const RunResult r = run(c.exec, c.cells, o, {});
  ASSERT_FALSE(r.stats.completed);
  EXPECT_NE(r.stats.error_detail.render().find("double write to matching slot"),
            std::string::npos)
      << r.stats.error_detail.render();
  EXPECT_NE(r.stats.error_detail.diagnosis.find("single-assignment"),
            std::string::npos)
      << r.stats.error_detail.diagnosis;
  // Checking off, the same defect is still caught, but only as the
  // generic matching-slot collision: the tag check runs first and
  // upgrades the report to the integrity taxonomy.
  o.check = CheckMode::kOff;
  const RunResult off = run(c.exec, c.cells, o, {});
  ASSERT_FALSE(off.stats.completed);
  EXPECT_EQ(off.stats.error_detail.code, ErrorCode::kSlotCollision)
      << off.stats.error_detail.render();
}

// ---------------------------------------------------------------------
// Hand-built graphs for the memory-discipline mutations: the defects
// need a specific store/synch/load shape the translator (correctly)
// never emits.

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

/// store(cell0) → ack → synch → load(cell0) → store(cell1): the synch
/// is the ordering edge that keeps the read a full memory round trip
/// behind the write.
Graph synch_ordered_graph() {
  Graph g;
  const NodeId s = add_start(g, {1});

  const NodeId st0 = g.add_store(0, "write");
  g.bind_literal({st0, 0}, 5);
  g.connect({s, 0}, {st0, 1}, true);

  const NodeId sy = g.add_synch(2, "order");
  g.connect({s, 0}, {sy, 0}, true);
  g.connect({st0, 0}, {sy, 1}, true);  // the ack edge skip-synch removes

  const NodeId ld = g.add_load(0, "read");
  g.connect({sy, 0}, {ld, 0}, true);

  const NodeId st1 = g.add_store(1, "out");
  g.connect({ld, 0}, {st1, 0}, false);
  g.connect({ld, 0}, {st1, 1}, false);

  const NodeId e = add_end(g, 1);
  g.connect({st1, 0}, {e, 0}, true);
  return g;
}

TEST(IntegrityMutation, SkippedSynchIsMemRace) {
  const Graph g = synch_ordered_graph();
  for (const Variant& v : kVariants) {
    MachineOptions o = checked_options(v);
    o.mem_latency = 8;

    const RunResult clean = run_variant(v, lower(g), 2, o);
    ASSERT_TRUE(clean.stats.completed)
        << v.name << ": " << clean.stats.error_detail.render();
    EXPECT_EQ(clean.store.cells[1], 5) << v.name;

    ExecProgram ep = lower(g);
    ASSERT_TRUE(apply_mutation(ep, Mutation::kSkipSynch)) << v.name;
    const RunResult r = run_variant(v, ep, 2, o);
    EXPECT_FALSE(r.stats.completed) << v.name;
    EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kIntegrityMemRace)
        << v.name << ": [" << code_slug(r.stats.error_detail.code) << "] "
        << r.stats.error_detail.render();
  }
}

/// Two independent I-structure writes to distinct cells of one
/// write-once region.
Graph two_istore_graph() {
  Graph g;
  const NodeId s = add_start(g, {1, 1});
  const NodeId e = add_end(g, 2);
  for (std::uint16_t i = 0; i < 2; ++i) {
    const NodeId st = g.add_istore(i, 1, i == 0 ? "first" : "second");
    g.bind_literal({st, 0}, 40 + i);  // value
    g.bind_literal({st, 1}, 0);       // index
    g.connect({s, i}, {st, 2}, true);
    g.connect({st, 0}, {e, i}, true);
  }
  return g;
}

TEST(IntegrityMutation, AliasedIStoreBaseIsDoubleWrite) {
  const Graph g = two_istore_graph();
  for (const Variant& v : kVariants) {
    const MachineOptions o = checked_options(v);

    const RunResult clean = run_variant(v, lower(g), 2, o, {{0, 2}});
    ASSERT_TRUE(clean.stats.completed)
        << v.name << ": " << clean.stats.error_detail.render();
    EXPECT_EQ(clean.store.cells[0], 40) << v.name;
    EXPECT_EQ(clean.store.cells[1], 41) << v.name;

    ExecProgram ep = lower(g);
    ASSERT_TRUE(apply_mutation(ep, Mutation::kAliasIStoreBase)) << v.name;
    const RunResult r = run_variant(v, ep, 2, o, {{0, 2}});
    EXPECT_FALSE(r.stats.completed) << v.name;
    EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kIStoreDoubleWrite)
        << v.name << ": [" << code_slug(r.stats.error_detail.code) << "] "
        << r.stats.error_detail.render();
  }
}

/// A deferred I-structure read resolved by a delayed write (the shape
/// of machine_istructure_test.cpp's final-drain case).
Graph deferred_read_graph() {
  Graph g;
  const NodeId s = add_start(g, {0, 1});

  const NodeId fetch = g.add_ifetch(0, 1, "early-read");
  g.bind_literal({fetch, 0}, 0);
  g.connect({s, 0}, {fetch, 1}, true);
  const NodeId st = g.add_store(1, "result");
  g.connect({fetch, 0}, {st, 0}, false);
  g.connect({fetch, 0}, {st, 1}, false);

  const NodeId gate = g.add_gate("delay");
  g.bind_literal({gate, 0}, 1);
  g.connect({s, 1}, {gate, 1}, true);
  const NodeId istore = g.add_istore(0, 1, "late-write");
  g.bind_literal({istore, 0}, 42);
  g.bind_literal({istore, 1}, 0);
  g.connect({gate, 0}, {istore, 2}, true);

  const NodeId e = add_end(g, 2);
  g.connect({st, 0}, {e, 0}, true);
  g.connect({istore, 0}, {e, 1}, true);
  return g;
}

TEST(IntegrityMutation, DuplicatedMemResponseIsOrphan) {
  const Graph g = deferred_read_graph();
  // This mutation is an options hook (the defect lives in the memory
  // subsystem, not the program), so apply_mutation declines it.
  ExecProgram ep = lower(g);
  EXPECT_FALSE(apply_mutation(ep, Mutation::kDupMemResponse));

  for (const Variant& v : kVariants) {
    MachineOptions o = checked_options(v);

    const RunResult clean = run_variant(v, lower(g), 2, o, {{0, 1}});
    ASSERT_TRUE(clean.stats.completed)
        << v.name << ": " << clean.stats.error_detail.render();
    EXPECT_EQ(clean.stats.deferred_reads, 1u) << v.name;

    o.test_dup_response = true;
    const RunResult r = run_variant(v, lower(g), 2, o, {{0, 1}});
    EXPECT_FALSE(r.stats.completed) << v.name;
    EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kIntegrityOrphanResponse)
        << v.name << ": [" << code_slug(r.stats.error_detail.code) << "] "
        << r.stats.error_detail.render();
  }
}

TEST(IntegrityMutation, MutationsDeclineWhenNoSiteExists) {
  // The loop program has no I-structure stores and no synchs; the
  // two-istore graph has no gates.
  Compiled c = compile_loop();
  EXPECT_FALSE(apply_mutation(c.exec, Mutation::kAliasIStoreBase));
  EXPECT_FALSE(apply_mutation(c.exec, Mutation::kSkipSynch));
  ExecProgram is = lower(two_istore_graph());
  EXPECT_FALSE(apply_mutation(is, Mutation::kDropGateArc));
}

TEST(IntegrityMutation, MutationNames) {
  EXPECT_STREQ(to_string(Mutation::kDupFanoutArc), "dup-fanout-arc");
  EXPECT_STREQ(to_string(Mutation::kMiswireFanoutPort),
               "miswire-fanout-port");
  EXPECT_STREQ(to_string(Mutation::kDropGateArc), "drop-gate-arc");
  EXPECT_STREQ(to_string(Mutation::kUndercountArity), "undercount-arity");
  EXPECT_STREQ(to_string(Mutation::kSkipSynch), "skip-synch");
  EXPECT_STREQ(to_string(Mutation::kAliasIStoreBase), "alias-istore-base");
  EXPECT_STREQ(to_string(Mutation::kDupMemResponse), "dup-mem-response");
}

}  // namespace
}  // namespace ctdf::machine
