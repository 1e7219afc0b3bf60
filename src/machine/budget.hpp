// Live tracking of a RunBudget (machine/options.hpp): the cooperative
// deadline and token ceilings the engine polls on its firing path.
//
// The cost contract mirrors integrity checking's: an unarmed budget is
// one dead `if (budget_)` branch per firing, and an armed but
// unexercised one must stay within 5% of the unbudgeted throughput
// (BM_MachineBudgetOverhead gates the ratio). Two tricks keep the armed
// path cheap:
//   * the token ceiling is a plain integer compare against a counter
//     the engine already maintains (RunStats::tokens_sent);
//   * the wall clock is read once every kPollStride polls — a strided
//     countdown, so at ~10M firings/s the deadline is detected within
//     ~100us of expiry while the steady_clock call amortizes to noise.
//
// Error text depends only on the *configured* budget, never on when the
// poll happened to trip, so every run (and both pending-queue policies)
// renders byte-identical `deadline-exceeded` / `token-budget` messages.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "machine/errors.hpp"
#include "machine/options.hpp"

namespace ctdf::machine {

class BudgetState {
 public:
  using Clock = std::chrono::steady_clock;

  /// Polls between wall-clock reads on the strided path.
  static constexpr std::uint32_t kPollStride = 1024;

  explicit BudgetState(const RunBudget& budget)
      : max_tokens_(budget.max_tokens), deadline_ms_(budget.deadline_ms) {
    if (budget.deadline_ms >= 0)
      deadline_ = Clock::now() + std::chrono::milliseconds(budget.deadline_ms);
  }

  /// Token ceiling: exact and deterministic (a run trips at the same
  /// firing every time).
  [[nodiscard]] bool tokens_exceeded(std::uint64_t tokens_sent) const {
    return max_tokens_ != 0 && tokens_sent > max_tokens_;
  }

  /// Strided deadline poll for per-firing call sites: counts down
  /// between clock reads. Not thread-safe: one run owns this object.
  [[nodiscard]] bool deadline_exceeded_strided() {
    if (deadline_ms_ < 0) return false;
    if (--until_poll_ != 0) return false;
    until_poll_ = kPollStride;
    return Clock::now() >= deadline_;
  }

  [[nodiscard]] RunError deadline_error() const {
    return deadline_error_for(deadline_ms_);
  }

  [[nodiscard]] RunError token_error() const {
    return RunError{ErrorCode::kTokenBudget,
                    "token budget exceeded: more than " +
                        std::to_string(max_tokens_) +
                        " token(s) sent (max-tokens)",
                    {}};
  }

  /// Shared error builder so the up-front zero-deadline rejection in
  /// machine.cpp renders the same message a mid-run expiry does.
  [[nodiscard]] static RunError deadline_error_for(std::int64_t deadline_ms) {
    return RunError{ErrorCode::kDeadlineExceeded,
                    "deadline exceeded: the " + std::to_string(deadline_ms) +
                        " ms wall-clock budget was spent before the program "
                        "completed",
                    {}};
  }

 private:
  std::uint64_t max_tokens_ = 0;
  std::int64_t deadline_ms_ = -1;
  Clock::time_point deadline_{};
  std::uint32_t until_poll_ = kPollStride;
};

}  // namespace ctdf::machine
