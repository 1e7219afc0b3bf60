#include "core/compiler.hpp"

#include "core/pipeline.hpp"
#include "lang/subroutines.hpp"
#include "machine/exec.hpp"

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

machine::RunResult execute(const translate::Translation& tx,
                           const machine::MachineOptions& options) {
  return machine::run(machine::lower(tx.graph), tx.memory_cells, options,
                      tx.istructures, tx.shared_cells);
}

machine::ProgramImage make_program_image(CompileResult cr) {
  return std::move(cr.image);
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
