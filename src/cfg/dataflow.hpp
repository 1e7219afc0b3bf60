// Classic iterative dataflow analyses over the statement-level CFG.
//
// These are the standard substrate a parallelizing compiler built on
// this IR needs (the paper situates its translation among data
// dependences and SSA; Section 6.1's memory elimination is a cousin of
// live-range analysis). Used by the optional dead-store-elimination
// pass (the `dse` stage).
//
// Alias discipline: a write to an *unaliased scalar* is a strong
// definition (kills); writes to aliased scalars and array elements are
// weak (kill nothing). The `end` node observes every variable — the
// final store is the program's result — so liveness at exit is "all
// variables".
#pragma once

#include "cfg/graph.hpp"
#include "lang/symbols.hpp"
#include "support/bitset.hpp"
#include "support/index_map.hpp"

namespace ctdf::cfg {

/// Per-node USE/DEF sets over variables, with the alias discipline
/// above. Shared by the analyses.
struct UseDef {
  UseDef(const Graph& g, const lang::SymbolTable& syms);

  support::IndexMap<NodeId, support::Bitset> use;
  /// Strong definitions only.
  support::IndexMap<NodeId, support::Bitset> def;
  std::size_t num_vars;
};

/// Backward may-analysis: which variables may still be read (or reach
/// `end`, which observes everything) before being strongly redefined.
class Liveness {
 public:
  Liveness(const Graph& g, const lang::SymbolTable& syms);

  [[nodiscard]] const support::Bitset& live_in(NodeId n) const {
    return in_[n];
  }
  [[nodiscard]] const support::Bitset& live_out(NodeId n) const {
    return out_[n];
  }

 private:
  support::IndexMap<NodeId, support::Bitset> in_, out_;
};

/// Replaces assignments that are dead under `liveness` — unaliased
/// scalar targets not live out of the assignment — with no-op joins.
/// Expression evaluation is side-effect free (total semantics), so this
/// preserves the final store. Returns the number of stores eliminated.
std::size_t eliminate_dead_stores(Graph& g, const lang::SymbolTable& syms);

}  // namespace ctdf::cfg
