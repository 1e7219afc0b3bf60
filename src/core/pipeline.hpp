// The staged compilation pipeline, driver side.
//
// core::Pipeline runs the explicit stage sequence defined in
// translate/stages.hpp (parse → cfg-build → … → validate), then lowers
// the graph (`lower`), and collects a PipelineTrace: per-stage wall
// time, artifact sizes, and stage-specific counters. It optionally
// captures one stage's rendered artifact (`--dump-after` in the ctdf
// CLI). Pipeline::run is the one compile path (`ctdf`, the program
// cache, the tests, benches and examples); core::execute runs its
// CompileResult::image. The stage orchestration itself lives in
// translate::run_stages.
//
//   ctdf::core::Pipeline p(ctdf::core::PipelineOptions{
//       translate::TranslateOptions::schema2_optimized()});
//   auto r = p.run(source);
//   std::puts(r.trace.table().c_str());
//   auto result = ctdf::core::execute(r.image, {});
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "machine/blob.hpp"
#include "translate/stages.hpp"
#include "translate/translator.hpp"

namespace ctdf::core {

// The stage vocabulary is defined once, in the translate layer; core
// re-exports it so downstream users need only this header.
using translate::PipelineTrace;
using translate::Stage;
using translate::StageRecord;

/// Unified configuration for a pipeline run: the translation options
/// plus the stats-only `ssa` stage and the dump selection. validate and
/// lower always run.
struct PipelineOptions {
  translate::TranslateOptions translate;

  /// Run the stats-only `ssa` stage (φ-placement counts in the trace).
  bool compute_ssa = false;

  /// Capture the rendered artifact of this stage into
  /// CompileResult::dump (Graphviz for graph stages, text for
  /// analyses).
  std::optional<Stage> dump_after;

  PipelineOptions() = default;
  /// Implicit on purpose: every TranslateOptions is a valid pipeline
  /// configuration, so call sites can keep passing schema presets.
  PipelineOptions(translate::TranslateOptions t) : translate(std::move(t)) {}
};

struct CompileResult {
  translate::Translation translation;
  /// What the `lower` stage builds: the ExecProgram, the memory geometry
  /// and the name→cell table (carried into blobs, machine/blob.hpp, so a
  /// deserialized program renders stores by variable name without the
  /// source's symbol table). core::execute runs it directly.
  machine::ProgramImage image;
  PipelineTrace trace;
  /// The artifact requested via PipelineOptions::dump_after (empty when
  /// none was requested or the stage did not run).
  std::string dump;
};

/// The name→cell table of `prog`'s memory image: one row per variable,
/// in declaration order, with the base and extent lang::StorageLayout
/// assigns (extent 0 for a scalar).
[[nodiscard]] std::vector<machine::NamedCell> named_cells(
    const lang::Program& prog);

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

  /// Full run from source text (the `parse` stage is timed and
  /// dumpable). `sub`/`call` constructs are expanded, and the source is
  /// lexed once (lang::parse_with_subroutines). Throws
  /// support::CompileError on any error.
  [[nodiscard]] CompileResult run(std::string_view source) const;

  /// Run from an already-parsed program; `parse` is reported skipped.
  [[nodiscard]] CompileResult run(const lang::Program& prog) const;

 private:
  PipelineOptions options_;
};

}  // namespace ctdf::core
