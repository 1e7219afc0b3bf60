// Resource classification (paper Section 6): which cover elements get
// their memory operations eliminated (6.1), which arrays live in
// write-once I-structure regions (6.3), and which (loop, array) pairs
// qualify for Fig. 14 store parallelization.
//
// This is the `cover` stage of the staged pipeline (see stages.hpp): it
// consumes the cover and the loop forest and produces the per-resource
// classification the fused graph construction consults at every memory
// reference.
#pragma once

#include <cstddef>
#include <vector>

#include "cfg/graph.hpp"
#include "cfg/intervals.hpp"
#include "lang/symbols.hpp"
#include "support/diagnostics.hpp"
#include "translate/cover.hpp"
#include "translate/options.hpp"
#include "translate/translator.hpp"

namespace ctdf::translate {

struct ResourceClasses {
  std::vector<bool> eliminated;   ///< Sec. 6.1: value rides the token
  std::vector<bool> istructure;   ///< Sec. 6.3: write-once region
  /// Per loop (by LoopId index): resources whose stores are Fig. 14
  /// parallelized inside that loop or a loop enclosing it.
  std::vector<std::vector<Resource>> marked;
  std::vector<lang::CellRegion> istructure_regions;
  std::size_t loops_store_parallelized = 0;  ///< Fig. 14 applications

  /// Is resource r "split" into (go, chain) tokens at node n — an
  /// I-structure everywhere, or a Fig. 14 array inside a marked loop?
  [[nodiscard]] bool split_at(const cfg::LoopInfo& loops, cfg::NodeId n,
                              Resource r) const;

  [[nodiscard]] std::size_t eliminated_count() const;
  [[nodiscard]] std::size_t istructure_count() const;
};

/// Classifies every cover element under `options`. Bad array
/// nominations (undeclared, aliased, jointly covered) are reported as
/// warnings to `diags` and ignored, exactly as the monolithic
/// translator did.
[[nodiscard]] ResourceClasses classify_resources(
    const lang::Program& prog, const TranslateOptions& options,
    const Cover& cover, const cfg::Graph& cfg, const cfg::LoopInfo& loops,
    const lang::StorageLayout& layout, support::DiagnosticEngine& diags);

}  // namespace ctdf::translate
