#include "machine/machine.hpp"

#include <algorithm>

#include "machine/budget.hpp"
#include "machine/calendar.hpp"
#include "machine/engine_serial.hpp"

namespace ctdf::machine {

namespace {

/// The farthest ahead of the current cycle any delivery can be
/// scheduled under `opt`: the wheel must span at least this. Firings
/// schedule at cycle + alu or mem latency, plus one network hop when
/// producer and consumer land on different PEs; k-bound stalls
/// re-deliver at cycle + 1. Fault injection can add at most
/// max_fault_delay (the full retry/backoff ladder plus jitter and
/// duplicate spread) to any single delivery.
std::uint64_t event_horizon(const MachineOptions& opt) {
  std::uint64_t h = std::max<std::uint64_t>(opt.alu_latency, opt.mem_latency);
  if (opt.processors > 0) h += opt.network_latency;
  h += max_fault_delay(opt.faults);
  return h;
}

/// Calendar-queue pending policy: O(1) push/drain, bitmap idle jump,
/// and arena frames recycled when their iteration context retires.
struct WheelPending {
  static constexpr bool kRecycleFrames = true;

  explicit WheelPending(const MachineOptions& opt) : q_(event_horizon(opt)) {}

  Token& push(std::uint64_t due) { return q_.push(due); }

  template <class F>
  void drain(std::uint64_t cycle, F&& f) {
    q_.drain(cycle, static_cast<F&&>(f));
  }

  [[nodiscard]] bool empty() const { return q_.empty(); }

  [[nodiscard]] std::uint64_t next_due(std::uint64_t cycle) const {
    return q_.next_due(cycle);
  }

  template <class F>
  void for_each_pending(std::uint64_t cycle, F&& f) const {
    q_.for_each_pending(cycle, static_cast<F&&>(f));
  }

  CalendarQueue q_;
};

}  // namespace

RunResult run(const ExecProgram& program, std::size_t memory_cells,
              const MachineOptions& options,
              const std::vector<IStructureRegion>& istructures,
              const std::vector<SharedRegion>& shared) {
  // A zero-millisecond deadline is already expired: reject up front —
  // 0 cycles, 0 firings, the store untouched — with the same typed
  // error a mid-run expiry produces (so a serving layer can clamp a
  // request's remaining deadline to zero after compilation ate it).
  if (options.budget.deadline_ms == 0) {
    RunResult out;
    out.stats.fired_by_kind.assign(dfg::kNumOpKinds, 0);
    out.stats.first_fire_cycle.assign(program.num_ops(), UINT64_MAX);
    out.stats.fail(BudgetState::deadline_error_for(0));
    return out;
  }
  // Absurd latency configurations whose horizon would need a degenerate
  // wheel run on the ordered-map policy instead — results are
  // byte-identical either way.
  if (event_horizon(options) >= CalendarQueue::kMaxHorizon) {
    return detail::SerialEngine<detail::MapPending>{
        program, memory_cells, options, istructures, shared}
        .run();
  }
  return detail::SerialEngine<WheelPending>{program, memory_cells, options,
                                            istructures, shared}
      .run();
}

RunResult run(const dfg::Graph& graph, std::size_t memory_cells,
              const MachineOptions& options,
              const std::vector<IStructureRegion>& istructures,
              const std::vector<SharedRegion>& shared) {
  return run(lower(graph), memory_cells, options, istructures, shared);
}

}  // namespace ctdf::machine
