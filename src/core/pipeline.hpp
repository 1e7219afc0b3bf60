// The staged compilation pipeline, driver side.
//
// core::Pipeline runs the explicit stage sequence defined in
// translate/stages.hpp (parse → cfg-build → … → validate) and collects
// a PipelineTrace: per-stage wall time, artifact sizes, and
// stage-specific counters. It optionally captures one stage's rendered
// artifact (`--dump-after` in the ctdf CLI). core::compile is a thin
// wrapper over Pipeline::run; both produce byte-identical graphs for
// identical options because the stage orchestration itself lives in
// translate::run_stages and is shared by every path.
//
//   ctdf::core::Pipeline p(ctdf::core::PipelineOptions{
//       translate::TranslateOptions::schema2_optimized()});
//   auto r = p.run(source);
//   std::puts(r.trace.table().c_str());
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "machine/blob.hpp"
#include "machine/exec.hpp"
#include "translate/stages.hpp"
#include "translate/translator.hpp"

namespace ctdf::core {

class ProgramCache;

// The stage vocabulary is defined once, in the translate layer; core
// re-exports it so downstream users need only this header.
using translate::PipelineTrace;
using translate::Stage;
using translate::StageRecord;

/// Unified configuration for a pipeline run: the translation options
/// plus the pipeline-level stage toggles and dump selection.
struct PipelineOptions {
  translate::TranslateOptions translate;

  /// Run the stats-only `ssa` stage (φ-placement counts in the trace).
  bool compute_ssa = false;

  /// Run the final `validate` stage (on by default, as core::compile
  /// always validated).
  bool validate = true;

  /// Run the `lower` stage: graph → machine::ExecProgram, cached in
  /// CompileResult::exec so execution needs no per-run lowering.
  bool lower = true;

  /// Capture the rendered artifact of this stage into
  /// CompileResult::dump (Graphviz for graph stages, text for
  /// analyses).
  std::optional<Stage> dump_after;

  PipelineOptions() = default;
  /// Implicit on purpose: every TranslateOptions is a valid pipeline
  /// configuration, so call sites can keep passing schema presets.
  PipelineOptions(translate::TranslateOptions t) : translate(std::move(t)) {}

  /// Enables/disables a stage by name ("dse", "ssa", "optimize", ...;
  /// the old names "post-opt" and "fanout-lower" are accepted as
  /// aliases). Returns false for unknown names and for stages that
  /// cannot be toggled (cfg-build, translate, ...).
  bool configure_stage(std::string_view name, bool enabled);
};

struct CompileResult {
  translate::Translation translation;
  /// The lowered program (empty when PipelineOptions::lower is off).
  /// machine::run's ExecProgram overload executes it directly.
  machine::ExecProgram exec;
  /// Name→cell table of the memory image, carried into blobs
  /// (machine/blob.hpp) so a deserialized program renders stores by
  /// variable name without the source's symbol table.
  std::vector<machine::NamedCell> names;
  PipelineTrace trace;
  /// The artifact requested via PipelineOptions::dump_after (empty when
  /// none was requested or the stage did not run).
  std::string dump;
};

/// Result of a batch run over several sources.
struct BatchResult {
  std::vector<CompileResult> programs;
  /// Per-stage aggregate over the batch (times/sizes/counters summed).
  PipelineTrace combined;
  /// Sources that reused a previous identical source's front-end work
  /// (within-batch text sharing or a ProgramCache hit).
  std::size_t cache_hits = 0;
  /// Of cache_hits, sources whose lowered ExecProgram came out of a
  /// ProgramCache (run_many's cache overload): no pipeline stage — not
  /// even lower — ran for these.
  std::size_t lowerings_reused = 0;
  /// Serialized size of the cache's resident entries after the batch
  /// (0 for the cache-less overload).
  std::uint64_t cache_blob_bytes = 0;
};

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

  /// Compiles a batch, sharing front-end work: textually identical
  /// sources are parsed and compiled once and the result is copied
  /// (traces still list every program; shared compiles count toward
  /// BatchResult::cache_hits).
  [[nodiscard]] BatchResult run_many(
      const std::vector<std::string>& sources) const;

  /// Batch compilation through a content-addressed program cache
  /// (core/progcache.hpp): identical (source, options) pairs share the
  /// whole pipeline *including lowering*, across batches and — with a
  /// disk tier — across processes. Cache-served programs carry an
  /// executable image (exec, memory geometry, names) but no graph and
  /// an empty trace; BatchResult::lowerings_reused counts them.
  [[nodiscard]] BatchResult run_many(const std::vector<std::string>& sources,
                                     ProgramCache& cache) const;

 private:
  PipelineOptions options_;
};

}  // namespace ctdf::core
