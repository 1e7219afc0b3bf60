// The control-flow → dataflow translator (the paper's contribution).
//
// One construction implements all of the paper's schemas, selected by
// TranslateOptions:
//
//  * Schema 1 (Sec. 2.3)  — options.sequential: a single access token
//    circulates along the sequential path (unified cover, no
//    per-iteration contexts, statement-internal read parallelism).
//  * Schema 2 (Sec. 3)    — singleton cover: one access token per
//    variable, loop-control nodes inserted by interval decomposition.
//  * Section 4 optimized  — options.optimize_switches: switch placement
//    by iterated control dependence (Fig. 10) and direct construction
//    from source vectors (Fig. 11); tokens bypass conditionals and
//    loops that do not reference them.
//  * Schema 3 (Sec. 5)    — options.cover: access tokens denote cover
//    elements; a memory operation collects its access set.
//  * Section 6 transforms — memory elimination (6.1), parallel reads
//    (6.2), Fig. 14 loop-store parallelization and I-structures (6.3).
//
// Construction walks the (loop-transformed) CFG once in reverse
// postorder, fusing the source-vector computation of Fig. 11 with
// wiring: each node consumes the accumulated token sources of its
// resources and propagates new sources to its successor — or, for a
// fork that needs no switch for a resource, directly to the fork's
// immediate postdominator (the bypass that Section 4 is about).
//
// One refinement beyond the paper's text (its loop-aware bypass
// generalization is only sketched there, deferred to a TR): a resource
// switched by any fork *inside* a loop must itself circulate through
// that loop's entry/exit nodes — otherwise the switch's data token
// (parent context) and predicate token (iteration context) could never
// rendezvous. We compute this as a fixpoint that enlarges loop
// reference sets until every switched resource is loop-resident.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "lang/ast.hpp"
#include "support/diagnostics.hpp"
#include "translate/options.hpp"

namespace ctdf::translate {

struct Translation {
  dfg::Graph graph;
  std::size_t memory_cells = 0;
  /// Write-once (I-structure) regions of the memory image.
  std::vector<lang::CellRegion> istructures;
  /// Bind-shared regions (see lang::CellRegion).
  std::vector<lang::CellRegion> shared_cells;

  // Construction statistics (for the Fig. 9/10 and T-SIZE experiments).
  std::size_t num_resources = 0;
  std::size_t switches_placed = 0;
  std::size_t cfg_nodes = 0;
  std::size_t cfg_edges = 0;
  std::size_t loops = 0;
  int nodes_split = 0;
  std::size_t loops_store_parallelized = 0;  ///< Fig. 14 applications
  std::size_t post_opt_removed = 0;  ///< nodes removed by dfg::run_passes
  std::size_t replicates_inserted = 0;  ///< fanout-lowering replicate nodes
  std::size_t dead_stores_removed = 0;  ///< liveness-based DSE (CFG level)
};

}  // namespace ctdf::translate
