// Machine configuration.
#pragma once

#include <cstdint>

namespace ctdf::machine {

/// Loop-control policy (the paper's Section 3 leaves loop control
/// unspecified — "there are many other possible approaches"; we
/// implement the two natural ones and benchmark them against each
/// other).
enum class LoopMode : std::uint8_t {
  /// The Monsoon-style suggestion from the paper: the loop-entry
  /// operator collects the complete set of circulating tokens, then
  /// allocates a frame (context) for the next iteration. Iterations are
  /// separated by a barrier at the loop entry.
  kBarrier,
  /// Tagged-token style: each circulating token independently enters
  /// the next iteration's context as soon as it arrives, so successive
  /// iterations overlap (software pipelining in the dataflow graph).
  kPipelined,
};

[[nodiscard]] inline const char* to_string(LoopMode m) {
  return m == LoopMode::kBarrier ? "barrier" : "pipelined";
}

/// How work is distributed over processing elements in multi-PE mode.
enum class Placement : std::uint8_t {
  /// Instructions hashed to PEs (static dataflow style): one node
  /// always fires on the same PE, iterations of a loop share PEs.
  kByNode,
  /// Contexts (frames) hashed to PEs (Monsoon style): an iteration's
  /// work stays local to one PE, different iterations spread out.
  kByContext,
};

[[nodiscard]] inline const char* to_string(Placement p) {
  return p == Placement::kByNode ? "by-node" : "by-context";
}

/// Opt-in run-time integrity checking: the machine carries cheap
/// permission tags on frame slots (empty → written-once → consumed,
/// the HDFI ldchk/sdset idiom) and request/response accounting on the
/// split-phase memory, and validates the tagged-token rules on every
/// delivery and firing. A clean run is a certificate that the
/// translation obeyed single-assignment, presence-bit discipline, and
/// memory ordering; a violation fails the run with a typed
/// `integrity/*` error (see machine/integrity.hpp).
enum class CheckMode : std::uint8_t {
  kOff,
  kIntegrity,
};

[[nodiscard]] inline const char* to_string(CheckMode c) {
  return c == CheckMode::kOff ? "off" : "integrity";
}

/// Deterministic fault-injection plan (see machine/faults.hpp for the
/// model and the recovery machinery). All rates are per-event
/// probabilities in [0,1]; every decision is a pure function of `seed`
/// and the event's identity, so faulted runs are exactly reproducible.
/// With every rate zero the plan is inert and the engine runs its
/// fault-free code paths unchanged.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Per-transmission probability that a cross-PE token is dropped and
  /// must be retransmitted after backoff (multi-processor mode only —
  /// the abstract pool has no network to lose tokens in).
  double drop = 0.0;
  /// Probability that a cross-PE token is duplicated in the network;
  /// the receiver drops the second copy by sequence number.
  double dup = 0.0;
  /// Probability of 1-4 cycles of extra network delay on a cross-PE
  /// token.
  double jitter = 0.0;
  /// Per-firing probability that the split-phase memory NACKs a
  /// request; the firing retries after backoff.
  double nack = 0.0;

  /// Transmission attempts (first try + retries) before the retry
  /// budget is exhausted and the run fails with kRetryExhausted.
  unsigned max_attempts = 6;
  /// Exponential backoff before retry k: base << (k-1) cycles ...
  unsigned backoff_base = 2;
  /// ... capped at this many cycles.
  unsigned backoff_cap = 64;
  /// Scheduler steps without a single firing before the no-progress
  /// watchdog declares livelock; 0 = a generous default (1M steps).
  std::uint64_t watchdog_steps = 0;

  [[nodiscard]] bool enabled() const {
    return drop > 0.0 || dup > 0.0 || jitter > 0.0 || nack > 0.0;
  }
};

/// Cooperative run budget: every way a single run may consume resources
/// has a ceiling here, checked on the engine's firing path
/// (machine/budget.hpp). The Monsoon discipline of bounding
/// frames/tokens/loop unfolding, extended to wall-clock time:
/// a serving layer can hand the machine a deadline and know the run
/// comes back — completed or with a typed `deadline-exceeded` /
/// `token-budget` error and partial RunStats — instead of occupying a
/// worker forever.
struct RunBudget {
  /// Wall-clock allowance in milliseconds. Negative = no deadline.
  /// 0 = already expired: the run is rejected up front (0 cycles,
  /// 0 firings) with the same typed error a mid-run expiry produces.
  std::int64_t deadline_ms = -1;

  /// Abort knob for runaway graphs (simulated cycles).
  std::uint64_t max_cycles = 50'000'000;

  /// Ceiling on tokens sent; 0 = unlimited. Unlike the deadline this is
  /// deterministic: two runs trip at the same firing.
  std::uint64_t max_tokens = 0;

  /// True when the per-firing budget poll must be engaged (the
  /// max_cycles ceiling rides the existing per-cycle check and needs no
  /// polling). When false the engine runs its legacy hot path behind
  /// one dead branch — the fault/integrity bargain.
  [[nodiscard]] bool armed() const {
    return deadline_ms >= 0 || max_tokens > 0;
  }
};

struct MachineOptions {
  LoopMode loop_mode = LoopMode::kBarrier;

  /// Operators fired per cycle across the machine; 0 = unlimited
  /// (pure-dataflow limit — cycles then measure the critical path).
  unsigned width = 0;

  /// k-bounded loops (Culler-style throttling): with pipelined loop
  /// control, at most this many iterations of one loop invocation may
  /// be in flight; tokens bound for iteration i+k stall at the loop
  /// entry until iteration i retires (its last token is consumed).
  /// 0 = unbounded. Bounds the frame-store footprint that unbounded
  /// pipelining would otherwise need — the classic dataflow resource-
  /// management tradeoff. Ignored in barrier mode (which is k = 1 by
  /// construction).
  unsigned loop_bound = 0;

  /// Explicit multi-processor mode: number of processing elements, each
  /// firing at most one operator per cycle, with `network_latency`
  /// added to every token that crosses PEs. 0 = the abstract single
  /// pool governed by `width` alone (the model the paper reasons in).
  unsigned processors = 0;

  /// Work distribution across PEs (multi-processor mode only).
  Placement placement = Placement::kByContext;

  /// Extra cycles for a token whose producer and consumer live on
  /// different PEs (multi-processor mode only).
  unsigned network_latency = 2;

  /// Latency of non-memory operators, cycles.
  unsigned alu_latency = 1;

  /// Split-phase memory round-trip latency, cycles.
  unsigned mem_latency = 4;

  /// Cooperative deadline / cycle / token ceilings (CLI
  /// `--max-cycles=`, `--deadline-ms=`, `--max-tokens=`).
  RunBudget budget;

  /// Finite frame store: at most this many iteration contexts may be
  /// live at once. A loop entry that would allocate beyond the capacity
  /// back-pressures (the forwarding waits for a context to retire)
  /// instead of aborting — graceful degradation, like an adaptive
  /// k-bound. 0 = unbounded (today's behavior).
  std::uint64_t frame_capacity = 0;

  /// Deterministic fault injection (inert by default).
  FaultPlan faults;

  /// 0 = deterministic FIFO scheduling. Non-zero seeds randomize the
  /// choice of which ready operator fires next — used by the
  /// confluence property tests (the final store must not change).
  std::uint64_t scheduler_seed = 0;

  /// Run-time integrity checking (CLI `--check=integrity`). Off by
  /// default: the engine then runs its legacy code paths and the tag
  /// machinery costs nothing.
  CheckMode check = CheckMode::kOff;

  /// Mutation-harness hook (tests only, effective only with
  /// check == kIntegrity): the split-phase memory delivers every
  /// deferred I-structure response twice, seeding the orphan-response
  /// defect the checker must catch.
  bool test_dup_response = false;

  /// Record the ops-fired-per-cycle profile (memory proportional to
  /// cycles; off by default).
  bool record_profile = false;

  /// Print every firing to stderr (debug).
  bool trace = false;
};

}  // namespace ctdf::machine
