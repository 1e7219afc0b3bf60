#include "support/scan_reference.hpp"

#include <cstdint>
#include <map>

#include "machine/engine_serial.hpp"

namespace ctdf::testing {
namespace {

/// The scan policy's pending queue: an ordered map of delivery cycle →
/// token FIFO, with no horizon, whose frames are never recycled.
struct MapPending {
  static constexpr bool kRecycleFrames = false;

  explicit MapPending(const machine::MachineOptions&) {}

  machine::Token& push(std::uint64_t due) { return m_[due].emplace_back(); }

  template <class F>
  void drain(std::uint64_t cycle, F&& f) {
    const auto it = m_.find(cycle);
    if (it == m_.end()) return;
    for (const machine::Token& t : it->second) f(t);
    m_.erase(it);
  }

  [[nodiscard]] bool empty() const { return m_.empty(); }

  [[nodiscard]] std::uint64_t next_due(std::uint64_t) const {
    return m_.begin()->first;
  }

  template <class F>
  void for_each_pending(std::uint64_t, F&& f) const {
    for (const auto& [due, v] : m_)
      for (const machine::Token& t : v) f(t);
  }

  std::map<std::uint64_t, std::vector<machine::Token>> m_;
};

}  // namespace

machine::RunResult run_scan(
    const machine::ExecProgram& program, std::size_t memory_cells,
    const machine::MachineOptions& options,
    const std::vector<lang::CellRegion>& istructures,
    const std::vector<lang::CellRegion>& shared) {
  return machine::detail::SerialEngine<MapPending>{
      program, memory_cells, options, istructures, shared}
      .run();
}

machine::RunResult run_scan(const machine::ProgramImage& image,
                            const machine::MachineOptions& options) {
  return run_scan(image.exec, static_cast<std::size_t>(image.memory_cells),
                  options, image.istructures, image.shared);
}

}  // namespace ctdf::testing
