#include "machine/machine.hpp"

#include <algorithm>

#include "machine/budget.hpp"
#include "machine/calendar.hpp"
#include "machine/engine_serial.hpp"
#include "support/assert.hpp"

namespace ctdf::machine {

namespace {

/// The farthest ahead of the current cycle any delivery can be
/// scheduled under `opt`: the wheel must span at least this. Firings
/// schedule at cycle + alu or mem latency, plus one network hop when
/// producer and consumer land on different PEs; k-bound and capacity
/// stalls re-deliver at cycle + 1.
std::uint64_t event_horizon(const MachineOptions& opt) {
  std::uint64_t h = std::max<std::uint64_t>(kAluLatency, opt.mem_latency);
  if (opt.processors > 0) h += opt.network_latency;
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
              const std::vector<lang::CellRegion>& istructures,
              const std::vector<lang::CellRegion>& shared) {
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
  // apply_machine_flag bounds the latency flags so no accepted option
  // set gets here; the engine asserts that every latency is positive.
  CTDF_ASSERT_MSG(event_horizon(options) < CalendarQueue::kMaxHorizon,
                  "latencies too large for the calendar wheel");
  return detail::SerialEngine<WheelPending>{program, memory_cells, options,
                                            istructures, shared}
      .run();
}

}  // namespace ctdf::machine
