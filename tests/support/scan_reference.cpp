#include "support/scan_reference.hpp"

#include "machine/engine_serial.hpp"

namespace ctdf::testing {

machine::RunResult run_scan(
    const machine::ExecProgram& program, std::size_t memory_cells,
    const machine::MachineOptions& options,
    const std::vector<machine::IStructureRegion>& istructures,
    const std::vector<machine::SharedRegion>& shared) {
  return machine::detail::SerialEngine<machine::detail::MapPending>{
      program, memory_cells, options, istructures, shared}
      .run();
}

machine::RunResult run_scan(
    const dfg::Graph& graph, std::size_t memory_cells,
    const machine::MachineOptions& options,
    const std::vector<machine::IStructureRegion>& istructures) {
  return run_scan(machine::lower(graph), memory_cells, options, istructures);
}

machine::RunResult run_scan(const translate::Translation& tx,
                            const machine::MachineOptions& options) {
  std::vector<machine::IStructureRegion> istructures;
  for (const auto& r : tx.istructures) istructures.push_back({r.base, r.extent});
  std::vector<machine::SharedRegion> shared;
  for (const auto& r : tx.shared_cells) shared.push_back({r.base, r.extent});
  return run_scan(machine::lower(tx.graph), tx.memory_cells, options,
                  istructures, shared);
}

}  // namespace ctdf::testing
