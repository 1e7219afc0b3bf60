// Brute-force oracles used to cross-check the efficient analyses.
//
// These deliberately use the *definitions* from the paper (path
// enumeration / naive fixpoints), not clever algorithms, so agreement
// with the production implementations is meaningful evidence.
#pragma once

#include <cstddef>
#include <vector>

#include "cfg/graph.hpp"
#include "dfg/graph.hpp"

namespace ctdf::testing {

/// Naive postdominance: m postdominates n iff removing m makes end
/// unreachable from n (plus reflexivity). O(N·E) per query set.
[[nodiscard]] bool naive_postdominates(const cfg::Graph& g, cfg::NodeId m,
                                       cfg::NodeId n);

/// Definition 1: N is between F and ipostdom(F) iff there is a non-null
/// path F ⇒ N that does not pass through ipostdom(F). (Computed by BFS
/// from F's successors avoiding P.)
[[nodiscard]] bool naive_between(const cfg::Graph& g, cfg::NodeId f,
                                 cfg::NodeId ipostdom_f, cfg::NodeId n);

/// Definition 4, checked directly: N control dependent on F.
[[nodiscard]] bool naive_control_dependent(const cfg::Graph& g, cfg::NodeId n,
                                           cfg::NodeId f);

/// CD⁺(n) by naive fixpoint over naive_control_dependent.
[[nodiscard]] std::vector<cfg::NodeId> naive_cd_plus(const cfg::Graph& g,
                                                     cfg::NodeId n);

/// A flow graph as plain successor lists (node ids are the graph's own
/// dense ids), for the dominance and loop oracles below.
struct FlowGraph {
  std::size_t root = 0;
  std::vector<std::vector<std::size_t>> succs;
};

/// The CFG from start, successors true first.
[[nodiscard]] FlowGraph flow_graph(const cfg::Graph& g);
/// The dataflow graph from Start, one successor per arc.
[[nodiscard]] FlowGraph flow_graph(const dfg::Graph& g);

/// Naive dominance: a dominates b iff b is reachable from the root and
/// removing a makes it unreachable (plus reflexivity on reachable
/// nodes). One search per call: by node, the nodes a dominates.
[[nodiscard]] std::vector<bool> naive_dominated_by(const FlowGraph& g,
                                                   std::size_t a);
[[nodiscard]] bool naive_dominates(const FlowGraph& g, std::size_t a,
                                   std::size_t b);

/// Natural loops by definition: for every edge u → h where h
/// naive-dominates u, h plus every node that reaches u without passing
/// through h (nodes unreachable from the root excluded); loops with the
/// same header merged.
struct NaiveLoops {
  std::vector<std::size_t> headers;          ///< ascending
  std::vector<std::vector<bool>> members;    ///< per header, by node
};
[[nodiscard]] NaiveLoops naive_natural_loops(const FlowGraph& g);

}  // namespace ctdf::testing
