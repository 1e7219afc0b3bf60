// Public facade: source text → dataflow graph → simulated execution.
//
// This is the API a downstream user programs against, together with
// core::Pipeline (core/pipeline.hpp), which compiles. Typical use:
//
//   auto prog   = ctdf::core::parse(source);
//   auto cr     = ctdf::core::Pipeline(
//                     ctdf::translate::TranslateOptions::schema2_optimized())
//                     .run(prog);
//   auto result = ctdf::core::execute(cr.image, {});   // default machine
//   std::int64_t x = ctdf::core::read_scalar(prog, result.store, "x");
#pragma once

#include <string_view>

#include "lang/ast.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "core/pipeline.hpp"
#include "machine/machine.hpp"
#include "translate/translator.hpp"

namespace ctdf::core {

/// Parses source text, `sub`/`call` constructs expanded
/// (lang::parse_with_subroutines); throws support::CompileError on
/// syntax/semantic errors.
[[nodiscard]] lang::Program parse(std::string_view source);

/// Takes a compilation's image, the self-contained unit blobs serialize
/// and the program cache stores: the lowered ExecProgram, the memory
/// geometry, and the name→cell table. Consumes the CompileResult (the
/// graph is dropped — an image is execution-only).
[[nodiscard]] machine::ProgramImage make_program_image(CompileResult cr);

/// Runs a self-contained program image — one deserialized from a blob
/// (machine/blob.hpp) or served by the program cache
/// (core/progcache.hpp). No source program or graph involved.
[[nodiscard]] machine::RunResult execute(const machine::ProgramImage& image,
                                         const machine::MachineOptions& options);

/// Reads a scalar variable (by name) out of a final store using the
/// program's storage layout. Throws on unknown names.
[[nodiscard]] std::int64_t read_scalar(const lang::Program& prog,
                                       const lang::Store& store,
                                       std::string_view name);

/// Reads one array element (by name) out of a final store.
[[nodiscard]] std::int64_t read_element(const lang::Program& prog,
                                        const lang::Store& store,
                                        std::string_view name,
                                        std::int64_t index);

}  // namespace ctdf::core
