// The scan pending policy as a test oracle.
//
// machine::run executes every program on the calendar-queue ("event")
// policy. The ordered-map ("scan") policy, defined in
// scan_reference.cpp, is the reference it must match byte for byte.
// Only the tests instantiate it: the differential suites call it
// through these helpers and compare the results against machine::run.
#pragma once

#include <cstddef>
#include <vector>

#include "machine/blob.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"

namespace ctdf::testing {

/// Runs a lowered program on SerialEngine<MapPending>. Unlike
/// machine::run it has no up-front zero-deadline rejection.
[[nodiscard]] machine::RunResult run_scan(
    const machine::ExecProgram& program, std::size_t memory_cells,
    const machine::MachineOptions& options,
    const std::vector<lang::CellRegion>& istructures = {},
    const std::vector<lang::CellRegion>& shared = {});

/// The scan-policy twin of core::execute(image, options): runs the
/// image the pipeline's `lower` stage built (CompileResult::image).
[[nodiscard]] machine::RunResult run_scan(
    const machine::ProgramImage& image, const machine::MachineOptions& options);

}  // namespace ctdf::testing
