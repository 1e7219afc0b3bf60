#include "core/compiler.hpp"

#include "core/pipeline.hpp"
#include "lang/subroutines.hpp"

namespace ctdf::core {

lang::Program parse(std::string_view source) {
  support::DiagnosticEngine diags;
  lang::Program prog = lang::parse_with_subroutines(source, diags);
  diags.throw_if_errors();
  return prog;
}

translate::Translation compile(const lang::Program& prog,
                               const translate::TranslateOptions& options) {
  return Pipeline(PipelineOptions(options)).run(prog).translation;
}

translate::Translation compile(std::string_view source,
                               const translate::TranslateOptions& options) {
  return Pipeline(PipelineOptions(options)).run(source).translation;
}

namespace {

std::vector<machine::IStructureRegion> istructure_regions(
    const translate::Translation& tx) {
  std::vector<machine::IStructureRegion> regions;
  regions.reserve(tx.istructures.size());
  for (const auto& r : tx.istructures)
    regions.push_back({r.base, r.extent});
  return regions;
}

std::vector<machine::SharedRegion> shared_regions(
    const translate::Translation& tx) {
  std::vector<machine::SharedRegion> regions;
  regions.reserve(tx.shared_cells.size());
  for (const auto& r : tx.shared_cells)
    regions.push_back({r.base, r.extent});
  return regions;
}

}  // namespace

machine::RunResult execute(const translate::Translation& tx,
                           const machine::MachineOptions& options) {
  return machine::run(tx.graph, tx.memory_cells, options,
                      istructure_regions(tx), shared_regions(tx));
}

machine::RunResult execute(const CompileResult& cr,
                           const machine::MachineOptions& options) {
  const translate::Translation& tx = cr.translation;
  if (cr.exec.num_ops() == 0)  // `lower` stage disabled
    return execute(tx, options);
  return machine::run(cr.exec, tx.memory_cells, options,
                      istructure_regions(tx), shared_regions(tx));
}

machine::ProgramImage make_program_image(CompileResult cr) {
  machine::ProgramImage image;
  image.exec = std::move(cr.exec);
  image.memory_cells = cr.translation.memory_cells;
  image.istructures = istructure_regions(cr.translation);
  image.shared = shared_regions(cr.translation);
  image.names = std::move(cr.names);
  return image;
}

machine::RunResult execute(const machine::ProgramImage& image,
                           const machine::MachineOptions& options) {
  return machine::run(image.exec,
                      static_cast<std::size_t>(image.memory_cells), options,
                      image.istructures, image.shared);
}

std::int64_t read_scalar(const lang::Program& prog, const lang::Store& store,
                         std::string_view name) {
  const auto v = prog.symbols.lookup(name);
  if (!v) throw support::CompileError("unknown variable: " + std::string(name));
  return lang::load_var(prog, store, *v);
}

std::int64_t read_element(const lang::Program& prog, const lang::Store& store,
                          std::string_view name, std::int64_t index) {
  const auto v = prog.symbols.lookup(name);
  if (!v) throw support::CompileError("unknown array: " + std::string(name));
  return lang::load_var(prog, store, *v, index);
}

}  // namespace ctdf::core
