// Round-trip tests for the dataflow assembly format.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "dfg/asmfmt.hpp"
#include "lang/corpus.hpp"

namespace ctdf::dfg {
namespace {

Module module_for(const lang::Program& prog,
                  const translate::TranslateOptions& topt) {
  auto tx = core::compile(prog, topt);
  Module m;
  m.graph = std::move(tx.graph);
  m.memory_cells = tx.memory_cells;
  m.istructures = std::move(tx.istructures);
  return m;
}

machine::RunResult run_module(const Module& m,
                              const machine::MachineOptions& opts = {}) {
  return machine::run(machine::lower(m.graph), m.memory_cells, opts,
                      m.istructures);
}

TEST(Asm, TextualRoundTripIsExact) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    const Module m = module_for(
        prog, translate::TranslateOptions::schema2_optimized());
    const std::string text = write_asm(m);
    const Module m2 = parse_asm_or_throw(text);
    EXPECT_EQ(write_asm(m2), text) << np.name;
    EXPECT_TRUE(m2.graph.validate().empty()) << np.name;
  }
}

TEST(Asm, ParsedModuleExecutesIdentically) {
  for (const auto& np : lang::corpus::all()) {
    const auto prog = lang::parse_or_throw(np.source);
    auto topt = translate::TranslateOptions::schema2_optimized();
    topt.eliminate_memory = true;
    const Module m = module_for(prog, topt);
    const Module m2 = parse_asm_or_throw(write_asm(m));
    const auto r1 = run_module(m);
    const auto r2 = run_module(m2);
    ASSERT_TRUE(r1.stats.completed)
        << np.name << ": " << r1.stats.error_detail.render();
    ASSERT_TRUE(r2.stats.completed)
        << np.name << ": " << r2.stats.error_detail.render();
    EXPECT_EQ(r1.store.cells, r2.store.cells) << np.name;
    EXPECT_EQ(r1.stats.cycles, r2.stats.cycles) << np.name;
    EXPECT_EQ(r1.stats.ops_fired, r2.stats.ops_fired) << np.name;
  }
}

TEST(Asm, IStructureRegionsSurvive) {
  const auto prog = lang::corpus::array_loop(6);
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.istructure_arrays = {"x"};
  const Module m = module_for(prog, topt);
  ASSERT_EQ(m.istructures.size(), 1u);
  const Module m2 = parse_asm_or_throw(write_asm(m));
  EXPECT_EQ(m2.istructures, m.istructures);
  const auto r = run_module(m2);
  EXPECT_TRUE(r.stats.completed) << r.stats.error_detail.render();
}

TEST(Asm, LabelsWithSpacesAndQuotesSurvive) {
  Graph g;
  Node s;
  s.kind = OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {7};
  s.label = "has \"quotes\" and spaces";
  const NodeId sn = g.add(std::move(s));
  g.set_start(sn);
  Node e;
  e.kind = OpKind::kEnd;
  e.num_inputs = 1;
  e.label = "the end";
  const NodeId en = g.add(std::move(e));
  g.set_end(en);
  g.connect({sn, 0}, {en, 0}, true);
  Module m;
  m.graph = std::move(g);
  m.memory_cells = 0;

  const Module m2 = parse_asm_or_throw(write_asm(m));
  EXPECT_EQ(m2.graph.node(m2.graph.start()).label,
            "has \"quotes\" and spaces");
  EXPECT_EQ(m2.graph.node(m2.graph.end()).label, "the end");
  EXPECT_EQ(write_asm(m2), write_asm(m));
}

TEST(Asm, AllOperatorKindsRoundTrip) {
  Graph g;
  Node s;
  s.kind = OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {0};
  g.set_start(g.add(std::move(s)));
  (void)g.add_binop(lang::BinOp::kGe, "cmp");
  (void)g.add_unop(lang::UnOp::kNot, "not");
  (void)g.add_load(3);
  (void)g.add_load_idx(4, 8);
  (void)g.add_store(5);
  (void)g.add_store_idx(6, 9);
  (void)g.add_switch();
  (void)g.add_merge();
  (void)g.add_synch(4);
  (void)g.add_loop_entry(cfg::LoopId{2u}, 3);
  (void)g.add_loop_exit(cfg::LoopId{2u}, 3);
  (void)g.add_istore(7, 2);
  (void)g.add_ifetch(7, 2);
  (void)g.add_gate();
  Node e;
  e.kind = OpKind::kEnd;
  e.num_inputs = 1;
  g.set_end(g.add(std::move(e)));
  Module m;
  m.graph = std::move(g);
  m.memory_cells = 16;

  const std::string text = write_asm(m);
  const Module m2 = parse_asm_or_throw(text);
  EXPECT_EQ(write_asm(m2), text);
  ASSERT_EQ(m2.graph.num_nodes(), m.graph.num_nodes());
  for (NodeId n : m.graph.all_nodes()) {
    EXPECT_EQ(m2.graph.node(n).kind, m.graph.node(n).kind);
    EXPECT_EQ(m2.graph.node(n).num_inputs, m.graph.node(n).num_inputs);
    EXPECT_EQ(m2.graph.node(n).num_outputs, m.graph.node(n).num_outputs);
    EXPECT_EQ(m2.graph.node(n).mem_base, m.graph.node(n).mem_base);
    EXPECT_EQ(m2.graph.node(n).mem_extent, m.graph.node(n).mem_extent);
  }
}

TEST(Asm, ParserReportsErrors) {
  for (const char* bad :
       {"node n0 bogus-kind", "arc n0.0 -> n1.0", "memory lots",
        "frobnicate 7", "node x0 start outs=1 values=[0]"}) {
    support::DiagnosticEngine d;
    (void)parse_asm(bad, d);
    EXPECT_TRUE(d.has_errors()) << bad;
  }
}

TEST(Asm, CommentsAndBlankLinesIgnored)
{
  const Module m = parse_asm_or_throw(R"(; a comment
memory 1

node n0 start outs=1 values=[0] ; trailing comment
node n1 end ins=1
arc n0.0 -> n1.0 dummy
start n0
end n1
)");
  EXPECT_TRUE(m.graph.validate().empty());
  EXPECT_EQ(m.memory_cells, 1u);
}

}  // namespace
}  // namespace ctdf::dfg
