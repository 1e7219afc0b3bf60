// A textual "dataflow assembly" for translated programs — the
// machine-code format of this repository's abstract ETS machine.
//
// Serializing the operator graph (plus its memory image description)
// lets compiled programs be inspected, diffed, stored, and re-executed
// without the frontend: `ctdf asm prog.ctdf > prog.dfa` and
// `ctdf exec prog.dfa`. The format round-trips exactly.
//
// Example:
//
//   ; ctdf dataflow assembly v1
//   memory 3
//   istructure 0 2
//   node n0 start outs=2 values=[0,0] label="start"
//   node n1 binop op=add in1=#1 label="x+1"
//   node n2 switch
//   node n3 loop-entry loop=0 ports=2
//   node n4 store base=1
//   node n5 end ins=2
//   arc n0.0 -> n1.0
//   arc n1.0 -> n2.0 dummy
//   start n0
//   end n5
//
// Literal-bound input ports are written as `inK=#value`; arcs carrying
// access/ack tokens carry the `dummy` flag (rendered dotted in DOT).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/graph.hpp"
#include "lang/symbols.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::dfg {

/// A self-contained executable unit: the graph plus its memory image.
struct Module {
  Graph graph;
  std::size_t memory_cells = 0;
  /// Write-once (I-structure) regions.
  std::vector<lang::CellRegion> istructures;
};

[[nodiscard]] std::string write_asm(const Module& module);

/// Parses the textual form; problems go to diags (result is partial on
/// error).
[[nodiscard]] Module parse_asm(std::string_view text,
                               support::DiagnosticEngine& diags);

[[nodiscard]] Module parse_asm_or_throw(std::string_view text);

}  // namespace ctdf::dfg
