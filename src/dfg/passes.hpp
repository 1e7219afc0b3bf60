// Structural graph transforms that are not optimizer passes.
//
// The optimization passes themselves (constant-switch folding, merge
// collapsing, const-fold, switch-elim, synch-narrow, DCE, macro-op
// fusion) live in dfg/pass_manager.hpp behind one OptLevel. This
// header holds:
//
//  * lower_fanout — Monsoon-fidelity fan-out bounding via replication
//    trees (marked Node::replicate so merge-collapsing skips them).
//  * max_fanout — the widest out-port, the bound lower_fanout enforces.
#pragma once

#include <cstddef>

#include "dfg/graph.hpp"

namespace ctdf::dfg {

/// Monsoon fidelity: a real explicit-token-store instruction can name
/// only a small number of destinations (two, on Monsoon). The IR allows
/// unlimited fan-out; this pass inserts replication trees (pass-through
/// merge nodes) so that no (node, out-port) feeds more than
/// `max_destinations` arcs. Returns the number of replicate nodes
/// inserted. `max_destinations` must be ≥ 2.
std::size_t lower_fanout(Graph& g, std::size_t max_destinations = 2);

/// Largest number of arcs leaving any single (node, out-port).
[[nodiscard]] std::size_t max_fanout(const Graph& g);

}  // namespace ctdf::dfg
