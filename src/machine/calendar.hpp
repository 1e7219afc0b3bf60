// Calendar queue (timing wheel) for in-flight tokens: the event
// policy's replacement for the scan policy's std::map<cycle, vector>.
//
// Every token's delivery cycle lies within a small, statically known
// horizon of the current cycle: firings schedule at cycle + latency
// (alu or mem) plus at most one network hop, and k-bound stalls
// re-deliver at cycle + 1. A power-of-two ring of buckets indexed by
// `due & mask` therefore never aliases two distinct live cycles, so
//  * push is an append into the due bucket — O(1), no tree rebalance,
//    no per-cycle map node allocation;
//  * draining a cycle clears its bucket in place, retaining capacity —
//    the bucket vectors become a self-recycling token pool as the
//    wheel wraps;
//  * finding the next non-empty cycle (the idle jump) is a find-first-
//    set over an occupancy bitmap instead of a tree descent.
//
// Ordering contract (what byte-identity with the scan policy rests
// on): tokens with equal due cycles are delivered in push order, and
// cross-cycle iteration (`for_each_pending`, used by the end-of-run
// drain accounting) visits buckets in ascending due order — exactly
// the std::map iteration the scan policy performs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "machine/frames.hpp"
#include "support/assert.hpp"

namespace ctdf::machine {

class CalendarQueue {
 public:
  /// Largest supported horizon (exclusive). The latency flags are
  /// bounded (kMaxLatency) so no run's horizon reaches it, and run()
  /// asserts as much.
  static constexpr std::uint64_t kMaxHorizon = 1u << 20;

  /// `horizon` = the maximum distance between the current cycle and any
  /// schedulable delivery cycle (max latency + max hop).
  explicit CalendarQueue(std::uint64_t horizon) {
    std::uint64_t size = 2;
    while (size < horizon + 2) size <<= 1;
    buckets_.resize(size);
    occupied_.assign((size + 63) / 64, 0);
    mask_ = size - 1;
  }

  /// Appends a token due at `due` and returns it, value-initialized,
  /// for the caller to fill in place (see SerialEngine::emit).
  Token& push(std::uint64_t due) {
    const std::uint64_t b = due & mask_;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++count_;
    return buckets_[b].emplace_back();
  }

  /// Visits every token due at `cycle` in push order, then clears the
  /// bucket (capacity retained). `f` may push tokens for later cycles.
  template <class F>
  void drain(std::uint64_t cycle, F&& f) {
    const std::uint64_t b = cycle & mask_;
    std::vector<Token>& bucket = buckets_[b];
    if (bucket.empty()) return;
    // Firings only ever schedule at least one cycle out, so the bucket
    // cannot grow under this loop; assert the invariant cheaply.
    const std::size_t n = bucket.size();
    for (std::size_t i = 0; i < n; ++i) f(bucket[i]);
    CTDF_ASSERT_MSG(bucket.size() == n, "token scheduled for the live cycle");
    count_ -= n;
    bucket.clear();
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// The next cycle after `cycle` with a pending delivery. Requires
  /// !empty(); every pending due lies in (cycle, cycle + horizon].
  [[nodiscard]] std::uint64_t next_due(std::uint64_t cycle) const {
    std::uint64_t off = 1;
    while (off <= mask_) {
      const std::uint64_t b = (cycle + off) & mask_;
      // Remaining occupancy bits of b's word, starting at b itself.
      // Bits past the ring top are never set, so a small wheel's single
      // word needs no masking.
      const std::uint64_t word = occupied_[b >> 6] >> (b & 63);
      if (word)
        return cycle + off + static_cast<std::uint64_t>(__builtin_ctzll(word));
      // Skip to the next word boundary — or to the ring top if that is
      // nearer, so the scan wraps instead of overshooting the ring.
      off += std::min<std::uint64_t>(64 - (b & 63), mask_ + 1 - b);
    }
    CTDF_UNREACHABLE("next_due on an empty calendar queue");
  }

  /// Visits every pending token in ascending due order (push order
  /// within a cycle), starting the scan at `cycle` — the wheel holds
  /// nothing older than the last drained cycle.
  template <class F>
  void for_each_pending(std::uint64_t cycle, F&& f) const {
    for (std::uint64_t off = 0; off <= mask_; ++off) {
      const std::vector<Token>& bucket = buckets_[(cycle + off) & mask_];
      for (const Token& t : bucket) f(t);
    }
  }

 private:
  std::vector<std::vector<Token>> buckets_;
  std::vector<std::uint64_t> occupied_;  ///< per-bucket non-empty bits
  std::uint64_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ctdf::machine
