#include "machine/errors.hpp"

namespace ctdf::machine {

const char* code_slug(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kDeadlock: return "deadlock";
    case ErrorCode::kSlotCollision: return "slot-collision";
    case ErrorCode::kCycleCap: return "cycle-cap";
    case ErrorCode::kFrameExhausted: return "frame-exhausted";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kTokenBudget: return "token-budget";
    case ErrorCode::kIStoreDoubleWrite: return "istore-double-write";
    case ErrorCode::kStoreInFlight: return "store-in-flight";
    case ErrorCode::kLoopExitOutsideLoop: return "loop-exit-outside-loop";
    case ErrorCode::kIntegrityDoubleWrite: return "integrity/double-write";
    case ErrorCode::kIntegrityReadEmpty: return "integrity/read-empty";
    case ErrorCode::kIntegrityMemRace: return "integrity/mem-race";
    case ErrorCode::kIntegrityOrphanResponse:
      return "integrity/orphan-response";
  }
  return "none";
}

}  // namespace ctdf::machine
