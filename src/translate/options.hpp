// Translation configuration: which schema of the paper to apply.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/pass_manager.hpp"
#include "translate/cover.hpp"

namespace ctdf::translate {

struct TranslateOptions {
  /// Schema 1 (Section 2.3): a single access token circulates along the
  /// sequential execution path; loads within a statement proceed in
  /// parallel but statements execute one at a time. Implies
  /// cover = kUnified, no per-iteration contexts, parallel reads, and
  /// switches/merges at every fork/join.
  bool sequential = false;

  /// Cover choice (Section 5). kSingleton with no aliasing is Schema 2;
  /// anything else is Schema 3 parameterized by the cover.
  CoverStrategy cover = CoverStrategy::kSingleton;

  /// Section 4: place switches only where needed (Figs 10 and 11) and
  /// let access tokens bypass conditionals and loops that do not
  /// reference their variables. Off = the naive Schema 2/3 placement
  /// (every fork switches every token; every join merges every token;
  /// loop control collects the complete token set).
  bool optimize_switches = false;

  /// Section 6.1: pass unaliased scalar values on tokens; delete their
  /// loads and stores (the SSA-like "functional" transformation).
  bool eliminate_memory = false;

  /// Section 6.2: replicate the access token to all reads of a resource
  /// within a statement and collect with a synch tree, instead of
  /// chaining reads sequentially.
  bool parallel_reads = false;

  /// Section 6.3 / Fig 14: arrays (by name) whose loop stores should be
  /// parallelized by access-token duplication + completion chain.
  /// Applied in every loop where the array is stored to but never read
  /// and not aliased; other occurrences are translated normally.
  std::vector<std::string> parallel_store_arrays;

  /// CFG-level dead-store elimination before translation: assignments
  /// to unaliased scalars that are overwritten (on every path) before
  /// any read — and before `end`, which observes the final store — are
  /// dropped. Classic liveness-based cleanup; see cfg/dataflow.hpp.
  bool dead_store_elimination = false;

  /// The dfg pass manager's level (`--opt=none|cleanup|all`); the
  /// `optimize` stage runs after construction unless it is kNone.
  dfg::OptLevel opt_level = dfg::OptLevel::kNone;

  /// Monsoon fidelity: bound each operator output to this many
  /// destination arcs by inserting replicate trees (0 = unlimited, the
  /// abstract-IR default; Monsoon itself allows 2).
  std::size_t max_fanout = 0;

  /// Section 6.3: arrays (by name) asserted write-once; translated to
  /// I-structure operations (reads and writes proceed concurrently,
  /// reads of empty cells defer in memory). The machine traps a double
  /// write, so a wrong assertion is detected, not silently miscompiled.
  std::vector<std::string> istructure_arrays;

  /// Paper-facing presets.
  static TranslateOptions schema1() {
    TranslateOptions o;
    o.sequential = true;
    return o;
  }
  static TranslateOptions schema2() { return {}; }
  static TranslateOptions schema2_optimized() {
    TranslateOptions o;
    o.optimize_switches = true;
    return o;
  }
  static TranslateOptions schema3(CoverStrategy cover) {
    TranslateOptions o;
    o.cover = cover;
    return o;
  }

  [[nodiscard]] std::string describe() const;

  /// The options as the translator actually applies them: Schema 1
  /// (sequential) forces the unified cover, disables switch optimization
  /// and memory elimination, enables within-statement parallel reads,
  /// and drops the array transforms. Idempotent.
  [[nodiscard]] TranslateOptions normalized() const;
};

/// Result of feeding one command-line token to apply_schema_flag.
enum class SchemaFlagParse : std::uint8_t {
  kNotSchemaFlag,  ///< not a schema option; try other option families
  kApplied,        ///< recognized and applied to the options
  kBadValue,       ///< recognized but the value is malformed
};

/// The one parser for schema-selection flags, shared by the `ctdf` CLI
/// and the bench harnesses: "--schema1", "--no-opt", "--cover=...",
/// "--mem-elim", "--dse", "--opt=none|cleanup|all", "--max-fanout=N"
/// (0 or ≥ 2), "--par-reads", "--fig14=a,b", "--istructure=a,b".
SchemaFlagParse apply_schema_flag(TranslateOptions& o, std::string_view arg);

/// Splits "a,b,c" into {"a","b","c"} (empty items dropped); used for
/// the list-valued schema flags and the CLI's --print.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& s);

}  // namespace ctdf::translate
