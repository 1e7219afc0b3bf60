// The graph-algorithms toolkit (support/graph_algo.hpp) against the
// by-definition oracles of support/oracles.hpp on random programs with
// unstructured and irreducible flow: dominance, each node's loop depth
// and innermost header, and loop containment, on the loop-transformed
// CFG (where cfg::LoopInfo must agree too) and on the optimized
// dataflow graph. Also: the toolkit calls a CFG reducible exactly when
// the loop transform splits no node. CTDF_FUZZ_SEEDS sizes the sweep
// (default 40).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cfg/build.hpp"
#include "cfg/intervals.hpp"
#include "core/pipeline.hpp"
#include "lang/generator.hpp"
#include "support/env.hpp"
#include "support/graph_algo.hpp"
#include "support/oracles.hpp"

namespace ctdf::testing {
namespace {

template <typename View>
support::GraphAlgo<typename View::Id> forest(const View& view) {
  support::GraphAlgo<typename View::Id> algo;
  support::build_order(view, algo);
  support::build_dominators(view, algo);
  support::build_loops(view, algo);
  return algo;
}

/// The first disagreement between `algo` and the oracles on `f` (the
/// same graph), or "".
template <typename IdT>
std::string compare(const support::GraphAlgo<IdT>& algo, const FlowGraph& f,
                    const NaiveLoops& loops) {
  std::ostringstream err;
  const std::size_t n = f.succs.size();
  for (std::size_t a = 0; a < n; ++a) {
    const std::vector<bool> dominated = naive_dominated_by(f, a);
    for (std::size_t b = 0; b < n; ++b)
      if (algo.dominates(IdT{a}, IdT{b}) != dominated[b])
        err << "dominates(" << a << ", " << b << ") ";
  }
  std::vector<bool> header(n, false);
  for (std::size_t h : loops.headers) header[h] = true;
  for (std::size_t v = 0; v < n; ++v) {
    const IdT id{v};
    if (algo[id].is_loop_header != header[v]) err << "header " << v << " ";
    std::uint32_t depth = 0;
    IdT innermost;
    std::size_t smallest = n + 1;
    for (std::size_t l = 0; l < loops.headers.size(); ++l) {
      const bool in = loops.members[l][v];
      const IdT h{loops.headers[l]};
      if (algo.loop_contains(h, id) != in)
        err << "loop_contains(" << h.value() << ", " << v << ") ";
      if (!in) continue;
      ++depth;
      const auto size = static_cast<std::size_t>(
          std::count(loops.members[l].begin(), loops.members[l].end(), true));
      if (size < smallest) {
        smallest = size;
        innermost = h;
      }
    }
    if (algo.loop_depth(id) != depth) err << "loop_depth(" << v << ") ";
    if (algo[id].iloop_header != innermost) err << "iloop_header(" << v << ") ";
  }
  return err.str();
}

/// LoopInfo of the transformed CFG against the natural loops of that
/// graph, whose headers are the loop-entry nodes.
std::string compare(const cfg::LoopInfo& info, const FlowGraph& f,
                    const NaiveLoops& loops) {
  std::ostringstream err;
  if (info.loops().size() != loops.headers.size()) err << "loop count ";
  for (const cfg::Loop& l : info.loops()) {
    const auto it = std::find(loops.headers.begin(), loops.headers.end(),
                              l.entry.index());
    if (it == loops.headers.end()) {
      err << "entry " << l.entry.value() << " heads no loop ";
      continue;
    }
    const std::vector<bool>& members =
        loops.members[static_cast<std::size_t>(it - loops.headers.begin())];
    int enclosing = 0;
    for (const std::vector<bool>& m : loops.members)
      if (m[l.entry.index()]) ++enclosing;
    if (l.depth + 1 != enclosing) err << "depth of loop " << l.id.value() << " ";
    for (std::size_t v = 0; v < f.succs.size(); ++v) {
      const cfg::NodeId id{v};
      if (info.in_loop(id, l.id) != members[v])
        err << "in_loop(" << v << ", " << l.id.value() << ") ";
      const bool enters = std::find(f.succs[v].begin(), f.succs[v].end(),
                                    l.entry.index()) != f.succs[v].end();
      if (enters && info.is_back_edge(id, l.entry) != members[v])
        err << "is_back_edge(" << v << ", " << l.entry.value() << ") ";
    }
  }
  return err.str();
}

class LoopForest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopForest, MatchesTheOraclesOnCfgAndDfg) {
  lang::GeneratorOptions gopt;
  gopt.allow_unstructured = true;
  gopt.allow_irreducible = true;
  gopt.num_arrays = 1;
  const lang::Program prog = lang::generate_program(gopt, GetParam());

  cfg::Graph g = cfg::build_cfg_or_throw(prog);
  const support::GraphAlgo<cfg::NodeId> before = forest(cfg::ForwardView{g});
  const bool reducible = support::is_reducible(cfg::ForwardView{g}, before);
  support::DiagnosticEngine diags;
  const cfg::LoopInfo info = cfg::transform_loops(g, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  EXPECT_EQ(reducible, info.nodes_split() == 0);
  EXPECT_TRUE(support::is_reducible(cfg::ForwardView{g},
                                    forest(cfg::ForwardView{g})));

  const FlowGraph cfg_flow = flow_graph(g);
  const NaiveLoops cfg_loops = naive_natural_loops(cfg_flow);
  EXPECT_EQ(compare(forest(cfg::ForwardView{g}), cfg_flow, cfg_loops), "")
      << "transformed CFG";
  EXPECT_EQ(compare(info, cfg_flow, cfg_loops), "") << "LoopInfo";

  auto topt = translate::TranslateOptions::schema2_optimized();
  ASSERT_EQ(translate::apply_schema_flag(topt, "--opt=all"),
            translate::SchemaFlagParse::kApplied);
  const core::CompileResult cr = core::Pipeline(topt).run(prog);
  const dfg::Graph& dg = cr.translation.graph;
  const FlowGraph dfg_flow = flow_graph(dg);
  EXPECT_EQ(compare(forest(dfg::FlowView{dg}), dfg_flow,
                    naive_natural_loops(dfg_flow)),
            "")
      << "optimized DFG";
}

std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> out(support::fuzz_seeds_from_env(40));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopForest, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace ctdf::testing
