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
