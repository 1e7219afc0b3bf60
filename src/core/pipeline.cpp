#include "core/pipeline.hpp"

#include <chrono>
#include <utility>

#include "lang/subroutines.hpp"
#include "lang/symbols.hpp"
#include "machine/exec.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Lowers the translated graph into CompileResult::image and appends
/// the `lower` stage record. Emitted here, not in translate::run_stages:
/// the translate library cannot depend on the machine library.
void run_lower_stage(CompileResult& result, std::optional<Stage> dump_after) {
  const translate::Translation& tx = result.translation;
  machine::ProgramImage& image = result.image;
  const auto t0 = Clock::now();
  image.exec = machine::lower(tx.graph);
  StageRecord r;
  r.stage = Stage::kLower;
  r.ran = true;
  r.nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  r.size_in = tx.graph.num_nodes();
  r.size_out = image.exec.num_ops();
  r.counters = {
      {"ops", static_cast<std::int64_t>(image.exec.num_ops())},
      {"dests", static_cast<std::int64_t>(image.exec.num_dests())},
      {"frame-slots", static_cast<std::int64_t>(image.exec.frame_slots())},
      {"literals", static_cast<std::int64_t>(image.exec.num_literals())}};
  result.trace.stages.push_back(std::move(r));
  if (dump_after == Stage::kLower) result.dump = machine::render(image.exec);
  image.memory_cells = tx.memory_cells;
  image.istructures = tx.istructures;
  image.shared = tx.shared_cells;
}

/// The one body behind both Pipeline::run overloads: parses `source`
/// unless `given` holds an already-parsed program (then `parse` is
/// reported skipped), runs the stages, and lowers.
CompileResult run_pipeline(const PipelineOptions& options,
                           std::string_view source,
                           const lang::Program* given) {
  CompileResult result;

  support::DiagnosticEngine diags;
  lang::Program parsed;  // the parse stage's artifact when `given` is null
  StageRecord pr;
  pr.stage = Stage::kParse;
  if (given == nullptr) {
    const auto t0 = Clock::now();
    parsed = lang::parse_with_subroutines(source, diags);
    pr.ran = true;
    pr.nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count();
    pr.size_in = source.size();
    pr.size_out = parsed.body.size();
    pr.counters = {
        {"stmts", static_cast<std::int64_t>(parsed.body.size())},
        {"vars", static_cast<std::int64_t>(parsed.symbols.size())}};
  }
  result.trace.stages.push_back(std::move(pr));
  diags.throw_if_errors();
  const lang::Program& prog = given ? *given : parsed;
  if (given == nullptr && options.dump_after == Stage::kParse)
    result.dump = prog.to_string();

  result.translation = translate::run_stages(
      prog, options.translate, diags, &result.trace, options.dump_after,
      &result.dump, options.compute_ssa);
  diags.throw_if_errors();
  result.image.names = named_cells(prog);
  run_lower_stage(result, options.dump_after);
  return result;
}

}  // namespace

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

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {}

CompileResult Pipeline::run(std::string_view source) const {
  return run_pipeline(options_, source, nullptr);
}

CompileResult Pipeline::run(const lang::Program& prog) const {
  return run_pipeline(options_, {}, &prog);
}

}  // namespace ctdf::core
