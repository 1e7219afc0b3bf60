// The execution engine, parameterized over its pending-token queue.
// machine.cpp instantiates it once, on a calendar-queue policy that
// also recycles retired contexts' frames ("event"). The test oracle in
// tests/support/scan_reference.cpp instantiates it on an ordered map
// keyed by delivery cycle that never frees a frame ("scan"). Every
// semantics-bearing line — delivery, matching, firing, token
// accounting, error reporting — is this one template, which is what
// makes the two policies byte-identical by construction;
// tests/machine_event_equiv_test.cpp guards the policies themselves
// against drift.
//
// Delivery is reliable, as on Monsoon: every token reaches its matching
// slot exactly once, after its latency plus, across PEs, the network
// latency.
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

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "machine/budget.hpp"
#include "machine/exec.hpp"
#include "machine/errors.hpp"
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
  /// Multi-PE issue only: fired in place, waiting to be dropped once
  /// every entry ahead of it has fired too (fire_multi_pe).
  bool fired = false;
};
static_assert(sizeof(ReadyEntry) == 24);

template <class PendingQueue>
class SerialEngine {
 public:
  SerialEngine(const ExecProgram& ep, std::size_t memory_cells,
               const MachineOptions& opt,
               const std::vector<lang::CellRegion>& istructures,
               const std::vector<lang::CellRegion>& shared = {})
      : ep_(ep),
        tables_(ep.tables()),
        opt_(opt),
        rng_(opt.scheduler_seed),
        non_strict_(non_strict_flags(opt.loop_mode)),
        cs_(opt.placement == Placement::kByContext ? opt.processors : 0),
        frames_(ep),
        pending_(opt) {
    CTDF_ASSERT_MSG(opt_.mem_latency >= 1,
                    "memory latency must be at least one cycle");
    // A deadline or token ceiling engages the per-firing poll; without
    // one, firings pay one dead branch.
    if (opt.budget.armed()) budget_.emplace(opt.budget);
    mem_.init(memory_cells, istructures);
    // Likewise for integrity checking: off means every checking branch
    // is one dead `if (check_)` / null `integ`.
    if (opt.check == CheckMode::kIntegrity) {
      check_ = true;
      frames_.enable_checking();
      integ_.emplace();
      integ_->init(mem_.store.cells.size(), opt.mem_latency,
                   opt.test_dup_response, shared);
    }
    stats_.fired_by_kind.assign(dfg::kNumOpKinds, 0);
    stats_.first_fire_cycle.assign(ep.num_ops(), UINT64_MAX);
    pe_fired_at_.assign(opt.processors, UINT64_MAX);
  }

  RunResult run() {
    boot();
    std::uint64_t cycle = 0;
    while (!completed_ && !failed()) {
      if (cycle >= opt_.budget.max_cycles) {
        stats_.cycles = cycle;
        stats_.fail(ErrorCode::kCycleCap,
                    "cycle cap exceeded (possible livelock or "
                    "non-terminating program)");
        break;
      }
      // 1. Deliver tokens due this cycle.
      pending_.drain(cycle, [&](const Token& t) { deliver(t, cycle); });
      stats_.peak_ready = std::max<std::uint64_t>(
          stats_.peak_ready, ready_.size() - ready_head_ - ready_fired_);

      // 2. Fire ready operators: either the abstract pool bounded by
      // `width`, or one operator per processing element per cycle.
      std::uint32_t fired = 0;
      if (opt_.processors == 0) {
        const std::uint64_t budget =
            opt_.width == 0 ? UINT64_MAX : opt_.width;
        while (ready_head_ < ready_.size() && fired < budget && !completed_ &&
               !failed()) {
          fire(next_ready(), cycle);
          ++ready_head_;
          shrink_ready();
          ++fired;
        }
      } else {
        fired = fire_multi_pe(cycle);
      }
      if (opt_.record_profile && profile_ok(cycle))
        stats_.profile[cycle] = fired;

      // 3. Advance time: next cycle if work remains ready, else jump to
      // the next scheduled delivery.
      if (completed_ || failed()) {
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
    stats_.completed = completed_ && !failed();
    if (stats_.completed) {
      // Tokens may legally still be draining when End fires (dead value
      // chains — e.g. a loop value overwritten before use — produce
      // tokens End does not transitively wait for). That is recorded.
      // A *store* still in flight, however, means memory is not final
      // and the translation failed to collect its acknowledgement.
      const auto is_write = [&](dfg::NodeId n) {
        return (tables_.op(n).flags & kExecWrite) != 0;
      };
      dfg::NodeId pending_write;
      for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
        if (ready_[i].fired) continue;
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
  [[nodiscard]] bool failed() const { return !stats_.error_detail.empty(); }

  bool profile_ok(std::uint64_t cycle) {
    if (cycle >= (1u << 22)) return false;
    if (stats_.profile.size() <= cycle) stats_.profile.resize(cycle + 1, 0);
    return true;
  }

  void boot() {
    const dfg::NodeId s = ep_.start();
    const ExecOp& start = tables_.op(s);
    ++stats_.ops_fired;
    ++stats_.fired_by_kind[static_cast<std::size_t>(start.kind)];
    for (std::uint16_t p = 0; p < start.num_outputs; ++p)
      emit(0, s, p, ep_.start_values()[p], /*cycle=*/0, /*latency=*/0);
  }

  [[gnu::always_inline]] void deliver(const Token& t, std::uint64_t cycle) {
    if (t.refire) {
      // A capacity-stalled barrier entry re-entering the ready queue:
      // its operands are still matched in the frame, so re-ready the op
      // without filing a slot.
      ready_slot(t.ctx, t.node);
      return;
    }
    ++stats_.tokens_sent;
    const ExecOp& op = tables_.op(t.node);
    if (op.flags & non_strict_) {
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
  /// wrote the fields. The same holds for tokens pushed in emit(), and
  /// on the pop side: an entry is fired where it sits (next_ready(),
  /// fire_multi_pe()), never copied out of the queue, because most were
  /// written field by field by this cycle's deliveries.
  ReadyEntry& ready_slot(std::uint32_t ctx, dfg::NodeId node) {
    ReadyEntry& r = ready_.emplace_back();
    r.ctx = ctx;
    r.node = node;
    return r;
  }

  /// The processing element (ctx, node) fires on: the context's,
  /// placed when it was allocated, or under --place-by-node the op's.
  /// Requires opt_.processors > 0.
  [[nodiscard]] std::uint32_t pe_of(std::uint32_t ctx,
                                    dfg::NodeId node) const {
    return opt_.placement == Placement::kByNode
               ? support::golden_bucket(node.value(), opt_.processors)
               : cs_.pe(ctx);
  }

  /// One cycle of multi-PE issue: each PE fires at most one ready
  /// operator (FIFO per PE); the rest wait. Entries fire in place and
  /// are marked fired, so a waiting entry is never copied; the head
  /// skips fired entries once every entry ahead of them has fired. A PE
  /// is busy when it last fired in this cycle, so no per-PE state is
  /// reset between cycles.
  std::uint32_t fire_multi_pe(std::uint64_t cycle) {
    std::uint32_t fired = 0;
    for (std::size_t i = ready_head_;
         i < ready_.size() && !completed_ && !failed(); ++i) {
      ReadyEntry& e = ready_[i];
      if (e.fired) continue;
      const std::uint32_t pe = pe_of(e.ctx, e.node);
      if (pe_fired_at_[pe] == cycle) continue;
      pe_fired_at_[pe] = cycle;
      fire(e, cycle);
      e.fired = true;
      ++ready_fired_;
      ++fired;
    }
    while (ready_head_ < ready_.size() && ready_[ready_head_].fired) {
      ++ready_head_;
      --ready_fired_;
    }
    shrink_ready();
    return fired;
  }

  /// The entry the serial pool fires next, in place: the head, or under
  /// --sched-seed a random waiting entry swapped to the head.
  ReadyEntry& next_ready() {
    if (opt_.scheduler_seed != 0) {
      const std::size_t span = ready_.size() - ready_head_;
      const std::size_t pick = ready_head_ + rng_.next_below(span);
      std::swap(ready_[ready_head_], ready_[pick]);
    }
    return ready_[ready_head_];
  }

  /// After the head advanced past fired entries. Emptied, the queue
  /// starts over at the front, so a queue that drains every cycle stays
  /// in the same few cache lines; a long-lived one sheds its fired
  /// prefix.
  void shrink_ready() {
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    } else if (ready_head_ > 4096 && ready_head_ * 2 > ready_.size()) {
      ready_.erase(ready_.begin(),
                   ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_));
      ready_head_ = 0;
    }
  }

  /// Schedules value onto every arc out of (node, port), counting each
  /// token as live in its context until a firing consumes it.
  void emit(std::uint32_t ctx, dfg::NodeId node, std::uint16_t port,
            std::int64_t value, std::uint64_t cycle, std::uint64_t latency) {
    const std::span<const ExecDest> dests =
        tables_.dests(tables_.op(node), port);
    const bool multi_pe = opt_.processors > 0;
    const std::uint32_t from_pe = multi_pe ? pe_of(fire_ctx_, node) : 0;
    for (const ExecDest& d : dests) {
      std::uint64_t hop = 0;
      if (multi_pe && pe_of(ctx, d.node) != from_pe)
        hop = opt_.network_latency;
      // Filled in place, see ready_slot().
      Token& t = pending_.push(cycle + latency + hop);
      t.ctx = ctx;
      t.node = d.node;
      t.value = value;
      t.port = d.port;
    }
    cs_.add_live(ctx, static_cast<std::uint32_t>(dests.size()));
  }

  [[gnu::always_inline]] void consume(std::uint32_t ctx, std::uint64_t cycle,
                                      std::uint32_t n = 1) {
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

  /// The context of iteration (loop ← from), allocated together with
  /// its frame-table entry on first use.
  std::uint32_t iteration_context(cfg::LoopId loop, std::uint32_t from) {
    const std::uint32_t ctx = cs_.context_for_iteration(loop, from, stats_);
    frames_.add_context(ctx);
    return ctx;
  }

  /// Finite frame store: true (and buffers the work) when firing this
  /// loop entry would allocate an iteration context beyond
  /// frame_capacity. Back-pressure, not a firing — no counters advance
  /// beyond the stall count, so the semantic counters of a degraded run
  /// match the unconstrained one.
  bool capacity_stall(const ReadyEntry& e, const ExecOp& op,
                      std::uint64_t cycle) {
    if (cs_.live_contexts() < opt_.frame_capacity ||
        !cs_.would_allocate(op.loop, e.ctx))
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
    // and multi-PE) already stop on a failure.
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
    const ExecOp& op = tables_.op(e.node);
    if (opt_.frame_capacity > 0 && op.kind == dfg::OpKind::kLoopEntry &&
        capacity_stall(e, op, cycle))
      return;
    fire_ctx_ = e.ctx;
    ++stats_.ops_fired;
    ++stats_.fired_by_kind[static_cast<std::size_t>(op.kind)];
    if (stats_.first_fire_cycle[e.node.index()] == UINT64_MAX)
      stats_.first_fire_cycle[e.node.index()] = cycle;
    const std::uint64_t alu = kAluLatency;
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
          // The compiler never builds one, but a hash-valid blob can:
          // there is no invocation context to return the token to.
          if (!cur.loop.valid()) {
            stats_.fail(ErrorCode::kLoopExitOutsideLoop,
                        "loop exit '" + ep_.label(e.node.index()) +
                            "' fired outside an iteration context");
            return;
          }
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
          const std::uint32_t next = iteration_context(op.loop, e.ctx);
          emit(next, e.node, e.port, e.value, cycle, alu);
          if (!e.requeued) consume(e.ctx, cycle);
          return;
        }
        default:
          CTDF_UNREACHABLE("bad non-strict op");
      }
    }

    // Strict firings: release the frame-slot range before executing, so
    // the op is re-creatable even while its own emissions are being
    // produced, and read the matched inputs where they sit. Nothing
    // writes the frame before the consume() at the end, after the last
    // read of `in`: emissions and deferred readers only push pending
    // tokens, release() touches only the op's state word and presence
    // bits (the integrity tags live outside the frame), and consume() is
    // the one call that can recycle the frame.
    std::byte* const frame = frames_.completed(e.ctx, op);
    const std::int64_t* in = frames_.inputs(frame, op);
    const int missing = frames_.release(frame, e.ctx, op);
    if (check_) {
      ++stats_.integrity_checks;
      if (missing >= 0) {
        stats_.fail(
            integrity_read_empty_error(ep_, e.node, missing, e.ctx, cycle));
        return;
      }
    }
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
          const std::uint32_t next = iteration_context(op.loop, e.ctx);
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

  /// The per-loop live/throttled breakdown of the deadlock report:
  /// distinguishes k-bound- or capacity-induced stalls from translation
  /// bugs.
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
  ExecTables tables_;  ///< ep_'s op table and fan-out arrays
  MachineOptions opt_;
  support::SplitMix64 rng_;
  /// The ExecOp::flags that make an op forward each token immediately
  /// under opt_.loop_mode: one test per delivery.
  std::uint8_t non_strict_;

  MemoryState mem_;
  DeferredMap deferred_;

  ContextState cs_;
  FrameStore frames_;

  PendingQueue pending_;
  std::vector<ReadyEntry> ready_;
  std::size_t ready_head_ = 0;
  std::size_t ready_fired_ = 0;  ///< entries marked fired past the head
  /// Per PE, the cycle it last fired in (UINT64_MAX: never).
  std::vector<std::uint64_t> pe_fired_at_;
  std::uint32_t fire_ctx_ = 0;  ///< context of the firing in progress

  std::optional<BudgetState> budget_;  ///< engaged iff opt_.budget.armed()
  bool check_ = false;  ///< opt_.check == CheckMode::kIntegrity
  std::optional<IntegrityState> integ_;  ///< engaged iff check_
  /// Loop-entry work blocked by frame_capacity, engine-global: any
  /// retirement may free the frame a blocked forwarding needs, whatever
  /// loop it belongs to.
  std::vector<Token> cap_stalled_;

  RunStats stats_;
  bool completed_ = false;
};

}  // namespace ctdf::machine::detail
