// Public facade: source text → dataflow graph → simulated execution.
//
// This is the API a downstream user programs against; examples/ and
// bench/ use nothing else. Typical use:
//
//   auto prog   = ctdf::core::parse(source);
//   auto tx     = ctdf::core::compile(prog,
//                     ctdf::translate::TranslateOptions::schema2_optimized());
//   auto result = ctdf::core::execute(tx, {});   // default machine
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

/// Translates a program under the given schema options; throws
/// support::CompileError on structural errors.
[[nodiscard]] translate::Translation compile(const lang::Program& prog,
                                             const translate::TranslateOptions& options);

/// One-step convenience: parse + compile.
[[nodiscard]] translate::Translation compile(std::string_view source,
                                             const translate::TranslateOptions& options);

/// Runs a translation on the simulated dataflow machine (lowers the
/// graph on every call; a CompileResult's image is already lowered).
[[nodiscard]] machine::RunResult execute(const translate::Translation& tx,
                                         const machine::MachineOptions& options);

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
