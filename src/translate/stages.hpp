// The staged compilation pipeline: one explicit, ordered sequence of
// named stages from program to executable dataflow graph.
//
//   parse → cfg-build → dse → loop-transform → cover → ssa →
//   dominance → control-dep → switch-place → translate → optimize →
//   fanout → validate
//
// Each stage declares an input/output artifact (CFG, loop forest,
// cover/classification, dataflow graph), records wall-time and a
// stage-specific counter set into a PipelineTrace, and can render its
// artifact as text/dot for dump points (`ctdf ... --dump-after=STAGE`).
// `parse` is driven by core::Pipeline — this layer starts from a
// lang::Program. Each optional stage has one switch: TranslateOptions
// carries dse (dead_store_elimination), optimize (opt_level other than
// kNone) and fanout (max_fanout ≥ 2); run_stages' `ssa` argument
// carries ssa. Every other stage, validate included, always runs. A
// disabled stage is reported as skipped, so every trace lists the full
// stage sequence. The `optimize` stage runs the dfg pass manager at
// TranslateOptions::opt_level and reports per-pass counters.
//
// run_stages is the single implementation behind core::Pipeline::run,
// which every compile goes through.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"
#include "translate/options.hpp"
#include "translate/translator.hpp"

namespace ctdf::translate {

/// Pipeline stages, in execution order.
enum class Stage : std::uint8_t {
  kParse,
  kCfgBuild,
  kDse,
  kLoopTransform,
  kCover,
  kSsa,
  kDominance,
  kControlDep,
  kSwitchPlace,
  kTranslate,
  kOptimize,
  kFanout,
  kValidate,
  /// Graph → machine::ExecProgram lowering. Lives above the translate
  /// layer (it needs the machine library), so run_stages never emits
  /// its record: core::Pipeline appends it, like kParse.
  kLower,
};

inline constexpr std::size_t kNumStages = 14;

[[nodiscard]] const char* to_string(Stage s);
[[nodiscard]] std::optional<Stage> stage_from_name(std::string_view name);
[[nodiscard]] const std::vector<Stage>& all_stages();

/// One executed (or skipped) stage of a pipeline run.
struct StageRecord {
  Stage stage = Stage::kParse;
  bool ran = false;          ///< false: disabled by options or early error
  std::int64_t nanos = 0;    ///< wall time (0 when skipped)
  std::size_t size_in = 0;   ///< artifact size entering (stage-specific unit)
  std::size_t size_out = 0;  ///< artifact size leaving
  /// Stage-specific stats, e.g. {"switches", 3} for switch-place.
  std::vector<std::pair<std::string, std::int64_t>> counters;

  /// Value of a named counter, or -1 when absent.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
};

struct PipelineTrace {
  std::vector<StageRecord> stages;

  /// The record of stage s, or nullptr if it was never reported.
  [[nodiscard]] const StageRecord* find(Stage s) const;
  [[nodiscard]] std::int64_t total_nanos() const;

  /// Human-readable table: stage, time, artifact size in → out (with
  /// delta), counters. One row per stage, skipped stages dashed.
  [[nodiscard]] std::string table() const;

  /// Deterministic one-line-per-stage rendering (names, sizes, and
  /// counters; no times) — the golden-test / diffing format.
  [[nodiscard]] std::string summary() const;
};

/// Runs every stage after `parse` over `prog`, appending one record per
/// stage, skipped stages included, to `trace` (may be null). When the
/// `dump_after` stage runs, its rendered artifact (Graphviz for CFG/DFG
/// stages, text for analyses) is stored in `*dump`.
/// `ssa` runs the φ-placement stage: classic SSA statistics over the
/// transformed CFG, reported in the trace (paper Sec. 6.1's
/// correspondence); it never affects the produced graph.
/// Frontend/structural problems go to `diags`; on error the returned
/// translation is partial and the remaining stages are reported as
/// skipped.
[[nodiscard]] Translation run_stages(const lang::Program& prog,
                                     const TranslateOptions& options,
                                     support::DiagnosticEngine& diags,
                                     PipelineTrace* trace = nullptr,
                                     std::optional<Stage> dump_after = {},
                                     std::string* dump = nullptr,
                                     bool ssa = false);

}  // namespace ctdf::translate
