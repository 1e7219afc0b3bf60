// The typed failure taxonomy of the machine: every way a run can fail
// has a code, a stable slug (the `error.code` field of --stats-json and
// the serve `machine` error), and a one-line message with an optional
// multi-line diagnosis.
#pragma once

#include <cstdint>
#include <string>

namespace ctdf::machine {

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kDeadlock,         ///< no events pending, End never fired
  kSlotCollision,    ///< two tokens waiting on one matching-slot port
  kCycleCap,         ///< RunBudget::max_cycles exceeded
  kFrameExhausted,   ///< back-pressured loop entries can never proceed
  kDeadlineExceeded,  ///< RunBudget::deadline_ms spent before completion
  kTokenBudget,       ///< RunBudget::max_tokens exceeded
  kIStoreDoubleWrite,  ///< second write to a write-once cell
  kStoreInFlight,    ///< End fired while a store's ack was uncollected
  kLoopExitOutsideLoop,  ///< a loop exit fired in no iteration context

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
/// multi-line structured diagnosis (the deadlock report). render()
/// joins them into the flat text of --stats-json's `error_string`, the
/// report and the CLI's `machine error:` line.
struct RunError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  std::string diagnosis;

  [[nodiscard]] bool empty() const { return code == ErrorCode::kNone; }
  [[nodiscard]] std::string render() const {
    return diagnosis.empty() ? message : message + "\n" + diagnosis;
  }
};

}  // namespace ctdf::machine
