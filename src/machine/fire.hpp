// The shared firing core: what one matched operator firing *does*, as
// pure functions from the matched inputs and a small machine-state
// interface to emitted (port, value) tokens and memory effects. The
// engine calls these inline in its fire loop, so the operator semantics
// exist in one place, apart from scheduling and token transport.
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/graph.hpp"
#include "machine/exec.hpp"
#include "machine/frames.hpp"
#include "machine/integrity.hpp"
#include "machine/machine.hpp"
#include "machine/options.hpp"
#include "support/assert.hpp"

namespace ctdf::machine {

/// The ExecOp::flags bits that make a lowered op non-strict under
/// `mode`: Merge/LoopExit always forward immediately; LoopEntry
/// additionally does under pipelined loop control (a machine-mode
/// decision, which is why it is resolved here and not in the lowering).
[[nodiscard]] constexpr std::uint8_t non_strict_flags(LoopMode mode) {
  return mode == LoopMode::kPipelined ? kExecNonStrict | kExecLoopEntry
                                      : kExecNonStrict;
}

/// Updatable memory plus the I-structure cell states layered on it.
struct MemoryState {
  static constexpr std::uint8_t kNormal = 0, kEmpty = 1, kFull = 2;

  lang::Store store;
  std::vector<std::uint8_t> istate;  ///< per cell

  void init(std::size_t memory_cells,
            const std::vector<lang::CellRegion>& istructures);
};

/// A resolved memory request: the absolute cell and, for writes, the
/// value operand.
struct MemAccess {
  std::uint64_t cell = 0;
  std::int64_t store_value = 0;
};

/// Resolves a memory op's matched inputs to the cell it addresses
/// (index operands wrapped into the op's extent).
[[nodiscard]] MemAccess resolve_mem(const ExecOp& op, const std::int64_t* in,
                                    std::size_t num_cells);

/// Fires a pure (ALU-class) operator: emit(port, value) per output
/// token. `p` supplies a kMacro op's fused-step slice — the head
/// computes the initial value from the matched inputs exactly as the
/// original operator would, then the absorbed tail steps apply in
/// chain order within the same firing (one match, one emitted token,
/// N ALU steps).
template <class EmitFn>
void fire_pure(const ExecProgram& p, const ExecOp& op, const std::int64_t* in,
               EmitFn&& emit) {
  switch (op.kind) {
    case dfg::OpKind::kBinOp:
      emit(std::uint16_t{0}, lang::eval_binop(op.bop, in[0], in[1]));
      break;
    case dfg::OpKind::kUnOp:
      emit(std::uint16_t{0}, lang::eval_unop(op.uop, in[0]));
      break;
    case dfg::OpKind::kSynch:
      emit(std::uint16_t{0}, std::int64_t{0});
      break;
    case dfg::OpKind::kGate:
      emit(std::uint16_t{0}, in[0]);
      break;
    case dfg::OpKind::kSwitch: {
      const bool dir = in[dfg::port::kSwitchPred] != 0;
      emit(dir ? dfg::port::kSwitchTrue : dfg::port::kSwitchFalse,
           in[dfg::port::kSwitchData]);
      break;
    }
    case dfg::OpKind::kMacro: {
      std::int64_t v = 0;
      switch (op.macro_head) {
        case dfg::OpKind::kBinOp:
          v = lang::eval_binop(op.bop, in[0], in[1]);
          break;
        case dfg::OpKind::kUnOp:
          v = lang::eval_unop(op.uop, in[0]);
          break;
        case dfg::OpKind::kGate:
          v = in[0];
          break;
        case dfg::OpKind::kSynch:
          v = 0;
          break;
        default:
          CTDF_UNREACHABLE("bad macro head");
      }
      for (const dfg::FusedStep& s : p.macro_steps(op))
        v = dfg::apply_step(s, v);
      emit(std::uint16_t{0}, v);
      break;
    }
    default:
      CTDF_UNREACHABLE("not a pure op");
  }
}

/// Applies a resolved memory request: cell mutation, acknowledgement /
/// value emission, and I-structure deferral. The caller supplies the
/// transport — emit(port, value) for the firing op's own outputs,
/// emit_deferred(ctx, node, value) for deferred readers an I-store
/// satisfies (tokens in *other* contexts), count_deferred_read() when a
/// fetch parks. mem_reads/mem_writes are counted by the engine.
///
/// `integ` (non-null iff --check=integrity) adds the memory
/// disciplines of machine/integrity.hpp: the race check on updatable
/// cells and split-phase response accounting on deferred reads; the
/// write-once check is always on (it guards memory state, not just the
/// certificate). Returns MemCheck::Kind::kOk on success; on any
/// violation the cell's new state was not committed beyond what the
/// report needs and the caller fails the run.
template <class EmitFn, class EmitDeferredFn, class CountFn>
[[nodiscard]] MemCheck apply_mem(const ExecOp& op, std::uint32_t ctx,
                                 dfg::NodeId node, const MemAccess& a,
                                 MemoryState& m, DeferredMap& deferred,
                                 IntegrityState* integ, std::uint64_t cycle,
                                 EmitFn&& emit, EmitDeferredFn&& emit_deferred,
                                 CountFn&& count_deferred_read) {
  if (integ && m.istate[a.cell] == MemoryState::kNormal) {
    // Updatable cells have no hardware interlock: conflicting accesses
    // must be ordered by the translation, and any *same-name* ordering
    // edge runs through an acknowledgement (a full mem-latency round
    // trip). Two accesses closer than that with at least one write are
    // therefore provably unordered. Read/read pairs are exempt
    // (parallel reads are legal), as are bind-shared cells (several
    // program names): cross-name ordering flows through ordinary token
    // edges the spacing argument says nothing about.
    const bool is_write = (op.flags & kExecWrite) != 0;
    IntegrityState::Cell& c = integ->cells[a.cell];
    if (!c.shared && c.last_cycle != IntegrityState::kNever &&
        cycle - c.last_cycle < integ->mem_latency &&
        (is_write || c.last_write)) {
      MemCheck mc;
      mc.kind = MemCheck::Kind::kMemRace;
      mc.cell = a.cell;
      mc.prev_node = c.last_node;
      mc.prev_cycle = c.last_cycle;
      mc.prev_write = c.last_write;
      return mc;
    }
    c.last_cycle = cycle;
    c.last_node = node.value();
    c.last_write = is_write;
  }
  switch (op.kind) {
    case dfg::OpKind::kLoad:
    case dfg::OpKind::kLoadIdx:
      emit(dfg::port::kLoadValue, m.store.cells[a.cell]);
      emit(dfg::port::kLoadAck, std::int64_t{0});
      break;
    case dfg::OpKind::kStore:
    case dfg::OpKind::kStoreIdx:
      m.store.cells[a.cell] = a.store_value;
      emit(std::uint16_t{0}, std::int64_t{0});
      break;
    case dfg::OpKind::kIStore: {
      if (m.istate[a.cell] == MemoryState::kFull) {
        MemCheck mc;
        mc.kind = MemCheck::Kind::kIStoreDoubleWrite;
        mc.cell = a.cell;
        return mc;
      }
      m.istate[a.cell] = MemoryState::kFull;
      m.store.cells[a.cell] = a.store_value;
      emit(std::uint16_t{0}, std::int64_t{0});
      if (const auto d = deferred.find(a.cell); d != deferred.end()) {
        for (const auto& [dctx, dnode] : d->second) {
          // Split-phase accounting: each response consumes exactly one
          // parked request. The dup_response mutation hook emits a
          // surplus response, which this check must turn away.
          const unsigned copies =
              integ && integ->dup_response ? 2u : 1u;
          for (unsigned i = 0; i < copies; ++i) {
            if (integ) {
              IntegrityState::Cell& c = integ->cells[a.cell];
              if (c.parked == 0) {
                MemCheck mc;
                mc.kind = MemCheck::Kind::kOrphanResponse;
                mc.cell = a.cell;
                mc.reader_node = dnode.value();
                mc.reader_ctx = dctx;
                return mc;
              }
              --c.parked;
            }
            emit_deferred(dctx, dnode, a.store_value);
          }
        }
        deferred.erase(d);
      }
      break;
    }
    case dfg::OpKind::kIFetch:
      if (m.istate[a.cell] != MemoryState::kEmpty) {
        emit(std::uint16_t{0}, m.store.cells[a.cell]);
      } else {
        count_deferred_read();
        if (integ) ++integ->cells[a.cell].parked;
        deferred[a.cell].emplace_back(ctx, node);
      }
      break;
    default:
      CTDF_UNREACHABLE("not a memory op");
  }
  return MemCheck{};
}

}  // namespace ctdf::machine
