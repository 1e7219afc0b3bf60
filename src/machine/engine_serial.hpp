// The execution engine, parameterized over its pending-token queue.
// machine.cpp runs every program on a calendar-queue policy that also
// recycles retired contexts' frames ("event"), and falls back to
// MapPending (ordered map keyed by delivery cycle, frames never freed:
// "scan") only when the latency horizon is too large for a wheel.
// MapPending is also the reference the differential suites compare the
// calendar policy against. Every semantics-bearing line — delivery,
// matching, firing, token accounting, error reporting — is this one
// template, which is what makes the two policies byte-identical by
// construction; tests/machine_event_equiv_test.cpp guards the policies
// themselves against drift.
//
// A PendingQueue policy provides:
//   static constexpr bool kRecycleFrames;     // recycle frames on
//                                             // context retirement
//   explicit PendingQueue(const MachineOptions&);
//   Token& push(uint64_t due);                // a value-initialized
//                                             // slot, FIFO per due cycle
//   template <class F> void drain(uint64_t cycle, F&&);  // then clears
//   bool empty() const;
//   uint64_t next_due(uint64_t cycle) const;  // requires !empty()
//   template <class F> void for_each_pending(uint64_t cycle, F&&) const;
//                                             // ascending due order
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "machine/budget.hpp"
#include "machine/exec.hpp"
#include "machine/faults.hpp"
#include "machine/fire.hpp"
#include "machine/integrity.hpp"
#include "machine/frames.hpp"
#include "machine/machine.hpp"
#include "machine/options.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace ctdf::machine::detail {

/// Fields ordered so the record packs into 24 bytes.
struct ReadyEntry {
  std::uint32_t ctx = 0;
  dfg::NodeId node;
  std::int64_t value = 0;
  std::uint16_t port = 0;
  /// Non-strict firings carry their single token inline.
  bool immediate = false;
  bool requeued = false;  ///< see Token::requeued
  bool refire = false;    ///< see Token::refire
};
static_assert(sizeof(ReadyEntry) == 24);

/// The scan policy's pending queue: an ordered map of delivery cycle →
/// token FIFO. The reference policy, and the only one that carries a
/// horizon at or past CalendarQueue::kMaxHorizon.
struct MapPending {
  static constexpr bool kRecycleFrames = false;

  explicit MapPending(const MachineOptions&) {}

  Token& push(std::uint64_t due) { return m_[due].emplace_back(); }

  template <class F>
  void drain(std::uint64_t cycle, F&& f) {
    const auto it = m_.find(cycle);
    if (it == m_.end()) return;
    for (const Token& t : it->second) f(t);
    m_.erase(it);
  }

  [[nodiscard]] bool empty() const { return m_.empty(); }

  [[nodiscard]] std::uint64_t next_due(std::uint64_t) const {
    return m_.begin()->first;
  }

  template <class F>
  void for_each_pending(std::uint64_t, F&& f) const {
    for (const auto& [due, v] : m_)
      for (const Token& t : v) f(t);
  }

  std::map<std::uint64_t, std::vector<Token>> m_;
};

template <class PendingQueue>
class SerialEngine {
 public:
  SerialEngine(const ExecProgram& ep, std::size_t memory_cells,
               const MachineOptions& opt,
               const std::vector<IStructureRegion>& istructures,
               const std::vector<SharedRegion>& shared = {})
      : ep_(ep),
        opt_(opt),
        rng_(opt.scheduler_seed),
        frames_(ep),
        pending_(opt) {
    CTDF_ASSERT_MSG(opt_.alu_latency >= 1 && opt_.mem_latency >= 1,
                    "latencies must be at least one cycle");
    // The fault machinery engages only when the plan can actually bite;
    // otherwise every fault branch below is one dead `if (fault_)` and
    // the engine is byte-identical to its fault-free self.
    if (fault_active(opt)) fault_.emplace(opt.faults);
    // And again for the run budget: a deadline or token ceiling engages
    // the per-firing poll; without one, firings pay one dead branch.
    if (opt.budget.armed()) budget_.emplace(opt.budget);
    mem_.init(memory_cells, istructures);
    // Same bargain for integrity checking: off means every checking
    // branch is one dead `if (check_)` / null `integ` and the hot path
    // is the legacy one.
    if (opt.check == CheckMode::kIntegrity) {
      check_ = true;
      frames_.enable_checking();
      integ_.emplace();
      integ_->init(mem_.store.cells.size(), opt.mem_latency,
                   opt.test_dup_response, shared);
    }
    stats_.fired_by_kind.assign(dfg::kNumOpKinds, 0);
    stats_.first_fire_cycle.assign(ep.num_ops(), UINT64_MAX);
  }

  RunResult run() {
    boot();
    std::uint64_t cycle = 0;
    while (!completed_ && stats_.error.empty()) {
      if (cycle >= opt_.budget.max_cycles) {
        stats_.cycles = cycle;
        stats_.fail(ErrorCode::kCycleCap,
                    "cycle cap exceeded (possible livelock or "
                    "non-terminating program)",
                    fault_ ? progress_diagnosis(cycle) : std::string{});
        break;
      }
      // 1. Deliver tokens due this cycle.
      pending_.drain(cycle, [&](const Token& t) { deliver(t, cycle); });
      stats_.peak_ready = std::max<std::uint64_t>(
          stats_.peak_ready, ready_.size() - ready_head_);

      // 2. Fire ready operators: either the abstract pool bounded by
      // `width`, or one operator per processing element per cycle.
      std::uint32_t fired = 0;
      if (opt_.processors == 0) {
        const std::uint64_t budget =
            opt_.width == 0 ? UINT64_MAX : opt_.width;
        while (ready_head_ < ready_.size() && fired < budget && !completed_ &&
               stats_.error.empty()) {
          fire(pop_ready(), cycle);
          ++fired;
        }
      } else {
        fired = fire_multi_pe(cycle);
      }
      if (opt_.record_profile && profile_ok(cycle))
        stats_.profile[cycle] = fired;

      // No-progress watchdog (faulted runs only): scheduler steps can
      // legally fire nothing while operands trickle in, but an unbroken
      // run of them means the recovery machinery is spinning.
      if (fault_ && completed_ == false && stats_.error.empty()) {
        if (fired == 0) {
          if (++no_fire_steps_ >= fault_->watchdog_limit()) {
            ++stats_.watchdog_triggers;
            stats_.fail(ErrorCode::kDeadlock,
                        "watchdog: no operator fired for " +
                            std::to_string(no_fire_steps_) +
                            " scheduler step(s) — livelock or stalled "
                            "recovery",
                        progress_diagnosis(cycle));
          }
        } else {
          no_fire_steps_ = 0;
        }
      }

      // 3. Advance time: next cycle if work remains ready, else jump to
      // the next scheduled delivery.
      if (completed_ || !stats_.error.empty()) {
        stats_.cycles = cycle + 1;
        break;
      }
      if (ready_head_ < ready_.size()) {
        ++cycle;
      } else if (!pending_.empty()) {
        cycle = pending_.next_due(cycle);
      } else {
        stats_.cycles = cycle + 1;
        stats_.fail(deadlock_error());
        break;
      }
    }
    stats_.completed = completed_ && stats_.error.empty();
    if (stats_.completed) {
      // Tokens may legally still be draining when End fires (dead value
      // chains — e.g. a loop value overwritten before use — produce
      // tokens End does not transitively wait for). That is recorded.
      // A *store* still in flight, however, means memory is not final
      // and the translation failed to collect its acknowledgement.
      const auto is_write = [&](dfg::NodeId n) {
        return (ep_.op(n).flags & kExecWrite) != 0;
      };
      dfg::NodeId pending_write;
      for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
        ++stats_.leftover_tokens;
        if (is_write(ready_[i].node)) pending_write = ready_[i].node;
      }
      pending_.for_each_pending(cycle, [&](const Token& t) {
        ++stats_.leftover_tokens;
        if (is_write(t.node)) pending_write = t.node;
      });
      frames_.for_each_live(
          [&](std::uint32_t, std::uint32_t op_idx, std::uint16_t) {
            if (ep_.op(op_idx).flags & kExecWrite)
              pending_write = dfg::NodeId{op_idx};
          });
      if (pending_write.valid()) {
        stats_.completed = false;
        stats_.fail(
            ErrorCode::kStoreInFlight,
            "end fired while store '" + ep_.label(pending_write.index()) +
                "' was still in flight — its acknowledgement is not collected");
      }
    }
    return RunResult{std::move(stats_), std::move(mem_.store)};
  }

 private:
  bool profile_ok(std::uint64_t cycle) {
    if (cycle >= (1u << 22)) return false;
    if (stats_.profile.size() <= cycle) stats_.profile.resize(cycle + 1, 0);
    return true;
  }

  void boot() {
    const dfg::NodeId s = ep_.start();
    const ExecOp& start = ep_.op(s);
    ++stats_.ops_fired;
    ++stats_.fired_by_kind[static_cast<std::size_t>(start.kind)];
    // Boot emissions model program loading, not network traffic: they
    // are exempt from fault injection.
    booting_ = true;
    for (std::uint16_t p = 0; p < start.num_outputs; ++p)
      emit(0, s, p, ep_.start_values()[p], /*cycle=*/0, /*latency=*/0);
    booting_ = false;
  }

  void deliver(const Token& t, std::uint64_t cycle) {
    if (fault_) {
      if (t.refire) {
        // A NACKed memory firing (or a capacity-stalled barrier entry)
        // re-entering the ready queue: its operands are still matched
        // in the frame, so re-ready the op without filing a slot.
        ready_slot(t.ctx, t.node).refire = true;
        return;
      }
      if (t.seq != 0 && !dedup_accept(t.seq)) {
        ++stats_.duplicates_dropped;
        return;
      }
    }
    ++stats_.tokens_sent;
    const ExecOp& op = ep_.op(t.node);
    if (non_strict(op, opt_.loop_mode)) {
      ReadyEntry& r = ready_slot(t.ctx, t.node);
      r.value = t.value;
      r.port = t.port;
      r.immediate = true;
      r.requeued = t.requeued;
      return;
    }
    if (check_) ++stats_.integrity_checks;
    switch (frames_.deliver(t.ctx, op, t.port, t.value)) {
      case FrameStore::Deliver::kTagOccupied:
        stats_.fail(
            integrity_double_write_error(ep_, t.node, t.port, t.ctx, cycle));
        return;
      case FrameStore::Deliver::kTagOverrun:
        // The activation completed without this token, so the pending
        // firing consumes this port's slot empty.
        stats_.fail(
            integrity_read_empty_error(ep_, t.node, t.port, t.ctx, cycle));
        return;
      case FrameStore::Deliver::kCollision:
        stats_.fail(ErrorCode::kSlotCollision,
                    "token collision at node " +
                        std::to_string(t.node.value()) + " (" +
                        to_string(op.kind) + " '" +
                        ep_.label(t.node.index()) + "') port " +
                        std::to_string(t.port) + " in context " +
                        std::to_string(t.ctx) + " at cycle " +
                        std::to_string(cycle));
        return;
      case FrameStore::Deliver::kCompleted:
        ++stats_.matches;
        ready_slot(t.ctx, t.node);
        break;
      case FrameStore::Deliver::kStored:
        ++stats_.matches;
        break;
    }
  }

  /// Appends a ready entry for (ctx, node), the rest of it defaulted,
  /// for the caller to fill in place. Building the entry on the stack
  /// and copying it in would stall on store forwarding: the copy's wide
  /// loads cannot take their data from the narrow stores that just
  /// wrote the fields. The same holds for tokens pushed in emit().
  ReadyEntry& ready_slot(std::uint32_t ctx, dfg::NodeId node) {
    ReadyEntry& r = ready_.emplace_back();
    r.ctx = ctx;
    r.node = node;
    return r;
  }

  [[nodiscard]] unsigned pe_of(std::uint32_t ctx, dfg::NodeId node) const {
    if (opt_.processors == 0) return 0;
    const std::uint64_t key =
        opt_.placement == Placement::kByNode ? node.value() : ctx;
    return support::golden_bucket(key, opt_.processors);
  }

  /// One cycle of multi-PE issue: each PE fires at most one ready
  /// operator (FIFO per PE); the rest wait. The waiting entries move to
  /// kept_, which then swaps with ready_, so both buffers keep their
  /// capacity from cycle to cycle.
  std::uint32_t fire_multi_pe(std::uint64_t cycle) {
    busy_.assign(opt_.processors, 0);
    kept_.clear();
    std::uint32_t fired = 0;
    std::size_t i = ready_head_;
    for (; i < ready_.size() && !completed_ && stats_.error.empty(); ++i) {
      const unsigned pe = pe_of(ready_[i].ctx, ready_[i].node);
      if (busy_[pe]) {
        kept_.push_back(ready_[i]);
        continue;
      }
      busy_[pe] = 1;
      fire(ready_[i], cycle);
      ++fired;
    }
    kept_.insert(kept_.end(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(i), ready_.end());
    ready_.swap(kept_);
    ready_head_ = 0;
    return fired;
  }

  ReadyEntry pop_ready() {
    if (opt_.scheduler_seed != 0) {
      const std::size_t span = ready_.size() - ready_head_;
      const std::size_t pick = ready_head_ + rng_.next_below(span);
      std::swap(ready_[ready_head_], ready_[pick]);
    }
    ReadyEntry e = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {
      // Emptied: start over at the front, so a queue that drains every
      // cycle stays in the same few cache lines.
      ready_.clear();
      ready_head_ = 0;
    } else if (ready_head_ > 4096 && ready_head_ * 2 > ready_.size()) {
      ready_.erase(ready_.begin(),
                   ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_));
      ready_head_ = 0;
    }
    return e;
  }

  /// Schedules value onto every arc out of (node, port), counting each
  /// token as live in its context until a firing consumes it.
  void emit(std::uint32_t ctx, dfg::NodeId node, std::uint16_t port,
            std::int64_t value, std::uint64_t cycle, std::uint64_t latency) {
    const unsigned from_pe = pe_of(fire_ctx_, node);
    for (const ExecDest& d : ep_.dests(node, port)) {
      std::uint64_t hop = 0;
      if (opt_.processors > 0 && pe_of(ctx, d.node) != from_pe)
        hop = opt_.network_latency;
      std::uint64_t due = cycle + latency + hop;
      std::uint64_t seq = 0;
      if (fault_ && hop > 0 && !booting_) {
        // Network fault injection (cross-PE transmissions only). A drop
        // is modeled as its own recovery: the retransmission ladder is
        // rolled up front and the token is scheduled once with the total
        // backoff delay — same arrival cycle, no token ever in limbo.
        const FaultState::Transit f = fault_->transit(fault_->next_id());
        if (f.exhausted) {
          ++stats_.watchdog_triggers;
          if (stats_.error.empty())
            stats_.fail(ErrorCode::kRetryExhausted,
                        "retry budget exhausted: token for node '" +
                            ep_.label(d.node.index()) + "' dropped " +
                            std::to_string(opt_.faults.max_attempts) +
                            " time(s) in the network",
                        progress_diagnosis(cycle));
        }
        stats_.faults_injected += f.drops + f.jitters + (f.duplicated ? 1 : 0);
        stats_.retries += f.drops;
        due += f.delay;
        if (f.duplicated) {
          // Both copies share one sequence number; the receiver delivers
          // whichever lands first and drops the other, so the logical
          // token is counted live exactly once.
          seq = fault_->next_seq();
          pending_.push(cycle + latency + hop + f.dup_delay) = {
              .ctx = ctx, .node = d.node, .value = value, .port = d.port,
              .seq = seq};
        }
      }
      Token& t = pending_.push(due);  // filled in place, see ready_slot()
      t.ctx = ctx;
      t.node = d.node;
      t.value = value;
      t.port = d.port;
      t.seq = seq;
      cs_.add_live(ctx);
    }
  }

  void consume(std::uint32_t ctx, std::uint64_t cycle, std::uint32_t n = 1) {
    const bool retired =
        cs_.consume(ctx, n, [&](std::vector<Token>&& stalled) {
          // Re-deliver the stalled forwardings to the loop entry; they
          // are still counted live in their source contexts, so push
          // them without re-counting.
          for (const Token& t : stalled) pending_.push(cycle + 1) = t;
        });
    if constexpr (PendingQueue::kRecycleFrames) {
      // The retiring context's last token just died, so its frame holds
      // no created slot — hand it back for the next iteration.
      if (retired) frames_.recycle(ctx);
    }
    if (retired && !cap_stalled_.empty()) {
      // A frame was freed: wake everything blocked on capacity. The
      // first to re-fire claims it; the rest re-stall.
      for (const Token& t : cap_stalled_) pending_.push(cycle + 1) = t;
      cap_stalled_.clear();
    }
  }

  /// Finite frame store: true (and buffers the work) when firing this
  /// loop entry would allocate an iteration context beyond
  /// frame_capacity. Back-pressure, not a firing — no counters advance
  /// beyond the stall count, so the semantic counters of a degraded run
  /// match the unconstrained one.
  bool capacity_stall(const ReadyEntry& e, const ExecOp& op,
                      std::uint64_t cycle) {
    if (!cs_.would_allocate(op.loop, e.ctx) ||
        cs_.live_contexts() < opt_.frame_capacity)
      return false;
    ++stats_.backpressure_stalls;
    if (e.immediate) {
      // Pipelined forwarding: buffer it, consumed from its source
      // context now so that context can retire and free its own frame.
      cap_stalled_.push_back({.ctx = e.ctx, .node = e.node, .value = e.value,
                              .port = e.port, .requeued = true});
      if (!e.requeued) consume(e.ctx, cycle);
    } else {
      // Barrier entry: the circulating set stays matched in the frame;
      // re-ready the whole firing once a retirement frees capacity.
      cap_stalled_.push_back({.ctx = e.ctx, .node = e.node, .refire = true});
    }
    return true;
  }

  void fire(const ReadyEntry& e, std::uint64_t cycle) {
    // The budget poll lives on the shared firing path — the one line
    // both pending-queue policies execute — so scan and event honor the
    // ceilings at identical points. Both firing loops (abstract pool
    // and multi-PE) already stop on stats_.error.
    if (budget_) {
      if (budget_->tokens_exceeded(stats_.tokens_sent)) {
        stats_.fail(budget_->token_error());
        return;
      }
      if (budget_->deadline_exceeded_strided()) {
        stats_.fail(budget_->deadline_error());
        return;
      }
    }
    const ExecOp& op = ep_.op(e.node);
    if (fault_) {
      if ((op.flags & kExecMem) && !e.refire) {
        // Split-phase memory NACK: the memory rejects the request and
        // the firing retries after capped exponential backoff, operands
        // still matched in the frame. A rejected attempt is not a
        // firing — no counters advance.
        const FaultState::Nack n = fault_->nack(fault_->next_id());
        if (n.exhausted) {
          ++stats_.watchdog_triggers;
          stats_.fail(ErrorCode::kRetryExhausted,
                      "retry budget exhausted: memory NACKed node '" +
                          ep_.label(e.node.index()) + "' " +
                          std::to_string(opt_.faults.max_attempts) +
                          " time(s)",
                      progress_diagnosis(cycle));
          return;
        }
        if (n.nacks > 0) {
          stats_.nacks_seen += n.nacks;
          stats_.retries += n.nacks;
          stats_.faults_injected += n.nacks;
          pending_.push(cycle + n.delay) = {
              .ctx = e.ctx, .node = e.node, .refire = true};
          return;
        }
      }
      if (opt_.frame_capacity > 0 && op.kind == dfg::OpKind::kLoopEntry &&
          capacity_stall(e, op, cycle))
        return;
    }
    fire_ctx_ = e.ctx;
    ++stats_.ops_fired;
    ++stats_.fired_by_kind[static_cast<std::size_t>(op.kind)];
    if (stats_.first_fire_cycle[e.node.index()] == UINT64_MAX)
      stats_.first_fire_cycle[e.node.index()] = cycle;
    if (opt_.trace)
      std::fprintf(stderr, "[%8llu] fire %-10s '%s' ctx=%u\n",
                   static_cast<unsigned long long>(cycle), to_string(op.kind),
                   ep_.label(e.node.index()).c_str(), e.ctx);
    const std::uint64_t alu = opt_.alu_latency;
    const std::uint64_t mem = opt_.mem_latency;

    // Non-strict firings: one token in, forwarded.
    if (e.immediate) {
      switch (op.kind) {
        case dfg::OpKind::kMerge:
          emit(e.ctx, e.node, 0, e.value, cycle, alu);
          consume(e.ctx, cycle);
          return;
        case dfg::OpKind::kLoopExit: {
          const CtxInfo& cur = cs_.info(e.ctx);
          CTDF_ASSERT_MSG(cur.loop.valid(),
                          "loop exit fired outside an iteration context");
          emit(cur.instance->invocation, e.node, e.port, e.value, cycle, alu);
          consume(e.ctx, cycle);
          return;
        }
        case dfg::OpKind::kLoopEntry: {
          // k-bounded loops: stall the forwarding (token stays live in
          // its source context) if starting the target iteration would
          // exceed the bound.
          if (auto* inst = cs_.bound_block(op.loop, e.ctx, opt_.loop_bound)) {
            // Buffer the forwarding in the loop entry: consumed from its
            // source context now (so that context can retire and release
            // a credit), re-fired on retirement.
            inst->stalled.push_back({.ctx = e.ctx, .node = e.node,
                                     .value = e.value, .port = e.port,
                                     .requeued = true});
            ++stats_.throttle_stalls;
            if (!e.requeued) consume(e.ctx, cycle);
            return;
          }
          const std::uint32_t next =
              cs_.context_for_iteration(op.loop, e.ctx, stats_);
          emit(next, e.node, e.port, e.value, cycle, alu);
          if (!e.requeued) consume(e.ctx, cycle);
          return;
        }
        default:
          CTDF_UNREACHABLE("bad non-strict op");
      }
    }

    // Strict firings: consume the frame-slot range — copy the matched
    // inputs out and release it before executing, so the op is
    // re-creatable even while its own emissions are being produced.
    CTDF_ASSERT(frames_.has(e.ctx, op) && frames_.remaining(e.ctx, op) == 0);
    const std::int64_t* slots = frames_.inputs(e.ctx, op);
    in_buf_.assign(slots, slots + op.num_inputs);
    const int missing = frames_.release(e.ctx, op);
    if (check_) {
      ++stats_.integrity_checks;
      if (missing >= 0) {
        stats_.fail(
            integrity_read_empty_error(ep_, e.node, missing, e.ctx, cycle));
        return;
      }
    }
    const std::int64_t* in = in_buf_.data();
    // The consume() itself runs after the outputs are emitted so a
    // context never transiently retires while its own successor tokens
    // are being produced.

    if (op.flags & kExecMem) {
      if (op.flags & kExecWrite)
        ++stats_.mem_writes;
      else
        ++stats_.mem_reads;
      const MemAccess a = resolve_mem(op, in, mem_.store.cells.size());
      if (check_) ++stats_.integrity_checks;
      const MemCheck mc = apply_mem(
          op, e.ctx, e.node, a, mem_, deferred_,
          integ_ ? &*integ_ : nullptr, cycle,
          [&](std::uint16_t port, std::int64_t value) {
            emit(e.ctx, e.node, port, value, cycle, mem);
          },
          [&](std::uint32_t dctx, dfg::NodeId dnode, std::int64_t value) {
            emit(dctx, dnode, 0, value, cycle, mem);
          },
          [&] { ++stats_.deferred_reads; });
      switch (mc.kind) {
        case MemCheck::Kind::kOk:
          break;
        case MemCheck::Kind::kIStoreDoubleWrite:
          stats_.fail(ErrorCode::kIStoreDoubleWrite,
                      "I-structure double write to cell " +
                          std::to_string(a.cell) + " by node '" +
                          ep_.label(e.node.index()) + "'");
          return;
        case MemCheck::Kind::kMemRace:
          stats_.fail(integrity_mem_race_error(ep_, e.node, mc, cycle,
                                               opt_.mem_latency));
          return;
        case MemCheck::Kind::kOrphanResponse:
          stats_.fail(integrity_orphan_error(ep_, mc));
          return;
      }
    } else {
      switch (op.kind) {
        case dfg::OpKind::kLoopEntry: {
          // Barrier mode: the full circulating set starts the next
          // iteration in a freshly allocated context.
          const std::uint32_t next =
              cs_.context_for_iteration(op.loop, e.ctx, stats_);
          for (std::uint16_t p = 0; p < op.num_inputs; ++p)
            emit(next, e.node, p, in[p], cycle, alu);
          break;
        }
        case dfg::OpKind::kEnd:
          completed_ = true;
          break;
        default:
          fire_pure(ep_, op, in, [&](std::uint16_t port, std::int64_t value) {
            emit(e.ctx, e.node, port, value, cycle, alu);
          });
      }
    }
    consume(e.ctx, cycle, op.consumed_inputs);
  }

  /// The per-loop live/throttled breakdown shared by the deadlock
  /// report and the watchdog diagnosis: distinguishes k-bound- or
  /// capacity-induced stalls from translation bugs.
  std::string loop_breakdown() const {
    std::string msg =
        "  loop state: " + std::to_string(cs_.live_contexts()) +
        " live iteration context(s), " +
        std::to_string(stats_.throttle_stalls) +
        " k-bound throttle stall(s), " +
        std::to_string(cap_stalled_.size()) +
        " forwarding(s) blocked on frame capacity";
    cs_.for_each_instance([&](std::uint32_t loop, std::uint32_t invocation,
                              unsigned in_flight, std::size_t stalled) {
      msg += "\n  loop " + std::to_string(loop) + " invocation ctx " +
             std::to_string(invocation) + ": " + std::to_string(in_flight) +
             " iteration(s) in flight, " + std::to_string(stalled) +
             " stalled forwarding(s)";
    });
    return msg;
  }

  /// Structured no-progress diagnosis (watchdog, retry exhaustion,
  /// fault-mode cycle cap): what is blocked and what is oldest in
  /// flight.
  std::string progress_diagnosis(std::uint64_t cycle) const {
    std::string msg = "  blocked: " + std::to_string(frames_.live_slots()) +
                      " matching slot(s) still waiting";
    bool first = true;
    pending_.for_each_pending(cycle, [&](const Token& t) {
      if (!first) return;
      first = false;
      msg += "\n  oldest pending token: node " +
             std::to_string(t.node.value()) + " ('" +
             ep_.label(t.node.index()) + "') port " + std::to_string(t.port) +
             " ctx " + std::to_string(t.ctx);
    });
    return msg + "\n" + loop_breakdown();
  }

  RunError deadlock_error() const {
    RunError err;
    std::string detail;
    int listed = 0;
    frames_.for_each_live([&](std::uint32_t ctx, std::uint32_t op_idx,
                              std::uint16_t remaining) {
      if (listed++ >= 5) return;
      detail += "  waiting: node " + std::to_string(op_idx) + " (" +
                to_string(ep_.op(op_idx).kind) + " '" + ep_.label(op_idx) +
                "') ctx " + std::to_string(ctx) + " missing " +
                std::to_string(remaining) + " input(s)\n";
    });
    if (!deferred_.empty())
      detail += "  plus " + std::to_string(deferred_.size()) +
                " I-structure cell(s) with deferred readers\n";
    const std::size_t stalled = cs_.stalled_total();
    if (stalled > 0)
      detail += "  plus " + std::to_string(stalled) +
                " forwarding(s) stalled by the loop bound\n";
    detail += loop_breakdown();
    if (!cap_stalled_.empty()) {
      // Every queue is empty yet forwardings are still blocked on frame
      // capacity: the finite frame store can never free a frame — that
      // is resource exhaustion, not a translation bug.
      err.code = ErrorCode::kFrameExhausted;
      err.message = "frame store exhausted: " +
                    std::to_string(cap_stalled_.size()) +
                    " loop forwarding(s) blocked on frame capacity " +
                    std::to_string(opt_.frame_capacity) +
                    " with no context able to retire";
    } else {
      err.code = ErrorCode::kDeadlock;
      err.message = "deadlock: no events pending, end never fired; " +
                    std::to_string(frames_.live_slots()) +
                    " matching slot(s) still waiting";
    }
    err.diagnosis = std::move(detail);
    return err;
  }

  const ExecProgram& ep_;
  MachineOptions opt_;
  support::SplitMix64 rng_;

  MemoryState mem_;
  DeferredMap deferred_;

  ContextState cs_;
  FrameStore frames_;

  PendingQueue pending_;
  std::vector<ReadyEntry> ready_;
  std::size_t ready_head_ = 0;
  /// fire_multi_pe's per-cycle scratch, kept so its capacity survives.
  std::vector<ReadyEntry> kept_;
  std::vector<std::uint8_t> busy_;
  std::uint32_t fire_ctx_ = 0;  ///< context of the firing in progress
  std::vector<std::int64_t> in_buf_;  ///< matched inputs of the firing

  /// First arrival of a seq wins; the second is dropped and the entry
  /// forgotten (a seq is used by exactly two copies, so the set stays
  /// bounded by the duplicates currently in flight).
  bool dedup_accept(std::uint64_t seq) {
    const auto [it, inserted] = dedup_seen_.insert(seq);
    if (!inserted) dedup_seen_.erase(it);
    return inserted;
  }

  std::optional<FaultState> fault_;  ///< engaged iff fault_active(opt_)
  std::optional<BudgetState> budget_;  ///< engaged iff opt_.budget.armed()
  bool check_ = false;  ///< opt_.check == CheckMode::kIntegrity
  std::optional<IntegrityState> integ_;  ///< engaged iff check_
  bool booting_ = false;
  /// Loop-entry work blocked by frame_capacity, engine-global: any
  /// retirement may free the frame a blocked forwarding needs, whatever
  /// loop it belongs to.
  std::vector<Token> cap_stalled_;
  std::unordered_set<std::uint64_t> dedup_seen_;
  std::uint64_t no_fire_steps_ = 0;

  RunStats stats_;
  bool completed_ = false;
};

}  // namespace ctdf::machine::detail
