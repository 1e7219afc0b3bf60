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
  /// polling). When false the poll costs the firing path one dead
  /// branch, as integrity checking does when it is off.
  [[nodiscard]] bool armed() const {
    return deadline_ms >= 0 || max_tokens > 0;
  }
};

/// Latency of non-memory operators, cycles: an ALU-class firing's
/// tokens arrive on the next cycle. `--stats-json` reports it under the
/// frozen "alu_latency" key.
inline constexpr unsigned kAluLatency = 1;

/// The largest value --mem-latency and --network-latency accept
/// (apply_machine_flag rejects more as a bad value). A delivery is due
/// at most max(alu, mem) + network latency cycles ahead, so at this
/// bound the horizon stays far below CalendarQueue::kMaxHorizon and the
/// per-run wheel stays small.
inline constexpr unsigned kMaxLatency = 1u << 16;

/// The largest value --processors accepts. A run keeps per-PE state
/// (the multi-PE issue stamps), so the PE count bounds its memory.
inline constexpr unsigned kMaxProcessors = 1u << 16;

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
  /// At most kMaxProcessors.
  unsigned processors = 0;

  /// Work distribution across PEs (multi-processor mode only).
  Placement placement = Placement::kByContext;

  /// Extra cycles for a token whose producer and consumer live on
  /// different PEs (multi-processor mode only), at most kMaxLatency.
  unsigned network_latency = 2;

  /// Split-phase memory round-trip latency, cycles (1 to kMaxLatency).
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
};

}  // namespace ctdf::machine
