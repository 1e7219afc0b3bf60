// Deterministic fault injection and the typed failure taxonomy of the
// machine (the robustness layer over the perfect simulator).
//
// The fault model mirrors what a real explicit-token-store machine
// (Monsoon) can suffer transiently:
//  (a) the inter-PE network drops, duplicates, or delays tokens;
//  (b) the split-phase memory subsystem NACKs a request;
//  (c) the finite frame store runs out of iteration frames.
// Recovery is sequence-numbered idempotent redelivery with capped
// exponential backoff for (a)/(b), and back-pressure (an adaptive
// k-bound at the loop entries) for (c). Every fault decision is a pure
// function of (fault seed, event identity), so a faulted run is exactly
// reproducible and the differential sweep in
// tests/machine_fault_equiv_test.cpp can assert the headline invariant:
// a within-budget fault plan yields the same final store and the same
// semantic counters (ops fired by kind, memory reads/writes) as the
// fault-free run, and an all-zero plan is byte-identical to a run with
// no fault machinery engaged at all.
#pragma once

#include <cstdint>
#include <string>

#include "machine/options.hpp"

namespace ctdf::machine {

/// The failure taxonomy. Every way a run can fail has a code; the
/// legacy string interface (RunStats::error) carries the rendered
/// RunError so existing callers and tests keep working unchanged.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kDeadlock,         ///< no events pending, End never fired (incl. livelock watchdog)
  kSlotCollision,    ///< two tokens waiting on one matching-slot port
  kCycleCap,         ///< RunBudget::max_cycles exceeded
  kFrameExhausted,   ///< back-pressured loop entries can never proceed
  kRetryExhausted,   ///< drop/NACK retry budget spent on one event
  kDeadlineExceeded,  ///< RunBudget::deadline_ms spent before completion
  kTokenBudget,       ///< RunBudget::max_tokens exceeded
  kIStoreDoubleWrite,  ///< second write to a write-once cell
  kStoreInFlight,    ///< End fired while a store's ack was uncollected

  // --check=integrity violations (machine/integrity.hpp).
  kIntegrityDoubleWrite,  ///< token for a slot already written, unconsumed
  kIntegrityReadEmpty,    ///< firing consumed a slot no token ever wrote
  kIntegrityMemRace,      ///< unordered same-cell accesses, one a write
  kIntegrityOrphanResponse,  ///< memory response with no outstanding request
};

/// Stable machine-readable slug ("deadlock", "cycle-cap", ...): the
/// `error.code` field of --stats-json.
[[nodiscard]] const char* code_slug(ErrorCode code);

/// Typed run failure: a short one-line message plus an optional
/// multi-line structured diagnosis (the watchdog report). render()
/// produces the backward-compatible string stored in RunStats::error.
struct RunError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  std::string diagnosis;

  [[nodiscard]] bool empty() const { return code == ErrorCode::kNone; }
  [[nodiscard]] std::string render() const {
    return diagnosis.empty() ? message : message + "\n" + diagnosis;
  }
};

/// True when any fault machinery must be engaged for `opt` (rates or a
/// finite frame capacity). When false the engine runs the exact
/// fault-free code path — byte-identical behavior and hot-path cost.
[[nodiscard]] inline bool fault_active(const MachineOptions& opt) {
  return opt.faults.enabled() || opt.frame_capacity > 0;
}

/// Backoff before retry `attempt` (1-based): base << (attempt-1),
/// capped, never less than one cycle.
[[nodiscard]] std::uint64_t backoff_delay(const FaultPlan& plan,
                                          unsigned attempt);

/// The largest extra delay injection can add to any single scheduled
/// delivery (full drop-retry ladder + jitter + duplicate spread). The
/// calendar queue widens its horizon by this.
[[nodiscard]] std::uint64_t max_fault_delay(const FaultPlan& plan);

/// Parses a `--faults=` spec: comma-separated key=value with keys
/// drop, dup, jitter, nack (rates in [0,1]), attempts, backoff, cap,
/// watchdog (integers). Returns an empty string on success, else the
/// complaint.
[[nodiscard]] std::string parse_fault_spec(const std::string& spec,
                                           FaultPlan& plan);

/// Per-run fault oracle. Stateless apart from the id/seq counters the
/// engine draws from; every decision is hash(seed, id, salt).
class FaultState {
 public:
  explicit FaultState(const FaultPlan& plan) : plan_(plan) {}

  /// The injected fate of one network transmission (one token on one
  /// arc): total extra delay from the drop-retry ladder and jitter,
  /// plus an optional duplicate copy. `exhausted` means every allowed
  /// transmission attempt was dropped — the retry budget is spent.
  struct Transit {
    std::uint64_t delay = 0;      ///< extra cycles before delivery
    std::uint64_t dup_delay = 0;  ///< duplicate copy's extra cycles
    unsigned drops = 0;           ///< retransmissions consumed
    unsigned jitters = 0;         ///< 1 if jitter was injected
    bool duplicated = false;
    bool exhausted = false;
  };
  [[nodiscard]] Transit transit(std::uint64_t id) const;

  /// The injected fate of one memory firing: how many NACKs it absorbs
  /// before the memory accepts it, and the summed backoff delay.
  struct Nack {
    std::uint64_t delay = 0;
    unsigned nacks = 0;
    bool exhausted = false;
  };
  [[nodiscard]] Nack nack(std::uint64_t id) const;

  /// The engine's deterministic id stream (one per roll site).
  std::uint64_t next_id() { return ++nonce_; }
  /// Fresh nonzero dedup sequence number for a duplicated token.
  std::uint64_t next_seq() { return ++seq_; }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// Scheduler steps without a firing before the no-progress watchdog
  /// trips (FaultPlan::watchdog_steps, 0 = a generous default).
  [[nodiscard]] std::uint64_t watchdog_limit() const {
    return plan_.watchdog_steps ? plan_.watchdog_steps
                                : std::uint64_t{1} << 20;
  }

 private:
  [[nodiscard]] std::uint64_t mix(std::uint64_t id, std::uint32_t salt) const;
  [[nodiscard]] bool roll(std::uint64_t id, std::uint32_t salt,
                          double rate) const;

  FaultPlan plan_;
  std::uint64_t nonce_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace ctdf::machine
