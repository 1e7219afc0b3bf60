// Round-trip properties of machine::lower (graph → ExecProgram), read
// off the image the pipeline's `lower` stage built: the lowered op
// table must preserve every structural fact the engine consumes — node
// count, op kinds, port arities, literal operands, fan-out destinations
// in graph-arc order — and lay out frame slots as disjoint per-op
// ranges with a dense strict index. Checked over the corpus programs
// under several schema option sets and over randomly generated
// programs.
#include <gtest/gtest.h>

#include <vector>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "machine/exec.hpp"

namespace ctdf {
namespace {

void expect_roundtrip(const core::CompileResult& cr) {
  const dfg::Graph& g = cr.translation.graph;
  const machine::ExecProgram& ep = cr.image.exec;
  ASSERT_EQ(ep.num_ops(), g.num_nodes());
  EXPECT_EQ(ep.start(), g.start());
  EXPECT_EQ(ep.end(), g.end());

  const dfg::Node& start = g.node(g.start());
  ASSERT_EQ(ep.start_values().size(), start.start_values.size());
  for (std::size_t i = 0; i < start.start_values.size(); ++i)
    EXPECT_EQ(ep.start_values()[i], start.start_values[i]);

  std::size_t framed = 0, dests = 0, literals = 0;
  std::vector<bool> slot_used(ep.frame_slots(), false);
  std::vector<bool> strict_used(ep.num_framed_ops(), false);
  for (dfg::NodeId n : g.all_nodes()) {
    const dfg::Node& node = g.node(n);
    const machine::ExecOp& op = ep.op(n);
    EXPECT_EQ(op.kind, node.kind);
    EXPECT_EQ(op.num_inputs, node.num_inputs);
    EXPECT_EQ(op.num_outputs, node.num_outputs);
    EXPECT_EQ(ep.label(n.index()), node.label);

    // Strictness and memory flags mirror the kind predicates.
    EXPECT_EQ((op.flags & machine::kExecNonStrict) != 0,
              dfg::is_non_strict_base(node.kind));
    EXPECT_EQ((op.flags & machine::kExecLoopEntry) != 0,
              node.kind == dfg::OpKind::kLoopEntry);
    EXPECT_EQ((op.flags & machine::kExecMem) != 0,
              dfg::is_memory_op(node.kind));
    EXPECT_EQ((op.flags & machine::kExecWrite) != 0,
              dfg::is_write_op(node.kind));

    // Literal operands are inlined; the rest arrive as tokens.
    std::uint16_t consumed = 0;
    for (std::uint16_t p = 0; p < node.num_inputs; ++p) {
      ASSERT_EQ(ep.literal_at(op, p), node.operands[p].is_literal);
      if (node.operands[p].is_literal) {
        EXPECT_EQ(ep.literal_value(op, p), node.operands[p].literal);
        ++literals;
      } else {
        ++consumed;
      }
    }
    EXPECT_EQ(op.consumed_inputs, consumed);

    // Frame layout: every rendezvousing op owns a disjoint slot range
    // and a unique dense strict index.
    const bool expect_framed = node.kind != dfg::OpKind::kStart &&
                               !dfg::is_non_strict_base(node.kind);
    ASSERT_EQ(op.framed(), expect_framed) << node.label;
    if (op.framed()) {
      ++framed;
      ASSERT_LE(op.frame_base + op.num_inputs, ep.frame_slots());
      for (std::uint16_t p = 0; p < op.num_inputs; ++p) {
        EXPECT_FALSE(slot_used[op.frame_base + p]) << node.label;
        slot_used[op.frame_base + p] = true;
      }
      ASSERT_LT(op.strict_index, ep.num_framed_ops());
      EXPECT_FALSE(strict_used[op.strict_index]) << node.label;
      strict_used[op.strict_index] = true;
    }

    // Fan-out destinations, grouped per out-port in graph-arc order —
    // the emission order the engine must reproduce.
    const auto arcs = g.out_arcs(n);
    for (std::uint16_t p = 0; p < node.num_outputs; ++p) {
      std::vector<dfg::Arc> expected;
      for (const dfg::Arc& a : arcs)
        if (a.src_port == p) expected.push_back(a);
      const auto ds = ep.dests(op, p);
      ASSERT_EQ(ds.size(), expected.size()) << node.label << " p" << p;
      for (std::size_t i = 0; i < ds.size(); ++i) {
        EXPECT_EQ(ds[i].node, expected[i].dst);
        EXPECT_EQ(ds[i].port, expected[i].dst_port);
      }
      dests += ds.size();
    }
  }
  // The aggregates the `lower` trace stage reports are exact totals.
  EXPECT_EQ(ep.num_framed_ops(), framed);
  EXPECT_EQ(ep.num_dests(), dests);
  EXPECT_EQ(ep.num_dests(), g.num_arcs());
  EXPECT_EQ(ep.num_literals(), literals);
  for (std::size_t s = 0; s < slot_used.size(); ++s)
    EXPECT_TRUE(slot_used[s]) << "unowned frame slot " << s;
}

std::vector<translate::TranslateOptions> option_ladder() {
  std::vector<translate::TranslateOptions> opts;
  opts.push_back(translate::TranslateOptions::schema1());
  opts.push_back(translate::TranslateOptions::schema2());
  opts.push_back(translate::TranslateOptions::schema2_optimized());
  auto full = translate::TranslateOptions::schema2_optimized();
  full.eliminate_memory = true;
  full.dead_store_elimination = true;
  full.opt_level = dfg::OptLevel::kCleanup;
  opts.push_back(full);
  return opts;
}

TEST(ExecLower, RoundTripCorpus) {
  for (const auto& named : lang::corpus::all()) {
    for (const auto& topt : option_ladder()) {
      SCOPED_TRACE(named.name + " / " + topt.describe());
      expect_roundtrip(core::Pipeline(topt).run(core::parse(named.source)));
    }
  }
}

TEST(ExecLower, RoundTripRandomPrograms) {
  lang::GeneratorOptions gopt;
  gopt.allow_unstructured = true;
  gopt.num_scalars = 5;
  gopt.max_toplevel_stmts = 12;
  const auto topts = option_ladder();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto prog = lang::generate_program(gopt, seed);
    const auto& topt = topts[seed % topts.size()];
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_roundtrip(core::Pipeline(topt).run(prog));
  }
}

}  // namespace
}  // namespace ctdf
