#include "core/pipeline.hpp"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "core/progcache.hpp"
#include "lang/subroutines.hpp"
#include "lang/symbols.hpp"
#include "machine/exec.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Collects records into a trace and captures the one requested dump.
class TraceHooks final : public translate::StageHooks {
 public:
  TraceHooks(PipelineTrace& trace, std::optional<Stage> dump_after,
             std::string& dump)
      : trace_(trace), dump_after_(dump_after), dump_(dump) {}

  void record(StageRecord r) override { trace_.stages.push_back(std::move(r)); }
  bool wants_dump(Stage s) override { return dump_after_ == s; }
  void dump(Stage /*s*/, std::string artifact) override {
    dump_ = std::move(artifact);
  }

 private:
  PipelineTrace& trace_;
  std::optional<Stage> dump_after_;
  std::string& dump_;
};

/// Lowers the translated graph into CompileResult::exec and appends the
/// `lower` stage record. Emitted here, not in translate::run_stages:
/// the translate library cannot depend on the machine library.
void run_lower_stage(const PipelineOptions& options, CompileResult& result,
                     TraceHooks& hooks) {
  StageRecord r;
  r.stage = Stage::kLower;
  if (!options.lower) {
    hooks.record(std::move(r));
    return;
  }
  const auto t0 = Clock::now();
  result.exec = machine::lower(result.translation.graph);
  r.ran = true;
  r.nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  r.size_in = result.translation.graph.num_nodes();
  r.size_out = result.exec.num_ops();
  r.counters = {
      {"ops", static_cast<std::int64_t>(result.exec.num_ops())},
      {"dests", static_cast<std::int64_t>(result.exec.num_dests())},
      {"frame-slots", static_cast<std::int64_t>(result.exec.frame_slots())},
      {"literals", static_cast<std::int64_t>(result.exec.num_literals())}};
  hooks.record(std::move(r));
  if (hooks.wants_dump(Stage::kLower))
    hooks.dump(Stage::kLower, machine::render(result.exec));
}

/// The name→cell table travelling with the compile (and into blobs):
/// one row per variable, with the same base/extent the interpreter's
/// StorageLayout assigns, so store rendering by name needs no symbols.
std::vector<machine::NamedCell> named_cells(const lang::Program& prog) {
  const lang::StorageLayout layout{prog.symbols};
  std::vector<machine::NamedCell> names;
  for (const lang::VarId v : prog.symbols.all_vars()) {
    machine::NamedCell cell;
    cell.name = prog.symbols.name(v);
    cell.base = static_cast<std::uint32_t>(layout.base(v));
    cell.extent = prog.symbols.is_array(v)
                      ? static_cast<std::int64_t>(layout.extent(v))
                      : 0;
    names.push_back(std::move(cell));
  }
  return names;
}

}  // namespace

bool PipelineOptions::configure_stage(std::string_view name, bool enabled) {
  if (name == "dse") {
    translate.dead_store_elimination = enabled;
  } else if (name == "ssa") {
    compute_ssa = enabled;
  } else if (name == "optimize" || name == "post-opt") {
    translate.post_optimize = enabled;
  } else if (name == "validate") {
    validate = enabled;
  } else if (name == "lower") {
    lower = enabled;
  } else if ((name == "fanout" || name == "fanout-lower") && !enabled) {
    translate.max_fanout = 0;
  } else {
    return false;
  }
  return true;
}

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {}

CompileResult Pipeline::run(std::string_view source) const {
  CompileResult result;
  TraceHooks hooks(result.trace, options_.dump_after, result.dump);

  support::DiagnosticEngine diags;
  const auto t0 = Clock::now();
  const lang::Program prog = lang::parse_with_subroutines(source, diags);
  StageRecord pr;
  pr.stage = Stage::kParse;
  pr.ran = true;
  pr.nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  pr.size_in = source.size();
  pr.size_out = prog.body.size();
  pr.counters = {
      {"stmts", static_cast<std::int64_t>(prog.body.size())},
      {"vars", static_cast<std::int64_t>(prog.symbols.size())}};
  hooks.record(std::move(pr));
  diags.throw_if_errors();
  if (hooks.wants_dump(Stage::kParse))
    hooks.dump(Stage::kParse, prog.to_string());

  translate::StageSet set;
  set.ssa = options_.compute_ssa;
  set.validate = options_.validate;
  result.translation =
      translate::run_stages(prog, options_.translate, diags, &hooks, set);
  diags.throw_if_errors();
  result.names = named_cells(prog);
  run_lower_stage(options_, result, hooks);
  return result;
}

CompileResult Pipeline::run(const lang::Program& prog) const {
  CompileResult result;
  TraceHooks hooks(result.trace, options_.dump_after, result.dump);

  StageRecord pr;  // no parsing happened on this path
  pr.stage = Stage::kParse;
  pr.ran = false;
  hooks.record(std::move(pr));

  support::DiagnosticEngine diags;
  translate::StageSet set;
  set.ssa = options_.compute_ssa;
  set.validate = options_.validate;
  result.translation =
      translate::run_stages(prog, options_.translate, diags, &hooks, set);
  diags.throw_if_errors();
  result.names = named_cells(prog);
  run_lower_stage(options_, result, hooks);
  return result;
}

BatchResult Pipeline::run_many(const std::vector<std::string>& sources) const {
  BatchResult batch;
  batch.programs.reserve(sources.size());
  // Front-end sharing: textually identical sources compile once.
  std::unordered_map<std::string, std::size_t> seen;
  for (const std::string& src : sources) {
    if (const auto it = seen.find(src); it != seen.end()) {
      batch.programs.push_back(batch.programs[it->second]);
      ++batch.cache_hits;
    } else {
      seen.emplace(src, batch.programs.size());
      batch.programs.push_back(run(src));
    }
    batch.combined.merge(batch.programs.back().trace);
  }
  return batch;
}

BatchResult Pipeline::run_many(const std::vector<std::string>& sources,
                               ProgramCache& cache) const {
  BatchResult batch;
  batch.programs.reserve(sources.size());
  for (const std::string& src : sources) {
    ProgramCache::Outcome out = cache.get(src, options_);
    const machine::ProgramImage& image = out.entry->image;
    CompileResult cr;
    cr.exec = image.exec;
    cr.names = image.names;
    // Rehydrate the memory geometry execute() reads off the
    // translation; the graph itself is not reconstructed for hits.
    cr.translation.memory_cells = image.memory_cells;
    for (const auto& r : image.istructures)
      cr.translation.istructures.push_back({r.base, r.extent});
    for (const auto& r : image.shared)
      cr.translation.shared_cells.push_back({r.base, r.extent});
    cr.trace = std::move(out.trace);
    if (out.disposition != CacheDisposition::kMiss) {
      ++batch.cache_hits;
      ++batch.lowerings_reused;
    }
    batch.combined.merge(cr.trace);
    batch.programs.push_back(std::move(cr));
  }
  batch.cache_blob_bytes = cache.stats().blob_bytes;
  return batch;
}

}  // namespace ctdf::core
