// ExecProgram — the one-time lowering of a dfg::Graph into the flat
// struct-of-arrays form the simulation engine executes (paper Section
// 2.2; the layout mirrors Monsoon's explicit token store [17]).
//
// Lowering precomputes everything the per-token hot path would
// otherwise chase pointers or hash for:
//  * a dense op table (kind, strictness flags, arities, operator
//    payload) indexed by dfg::NodeId;
//  * inline literal operands (is-literal mask + values in one flat
//    array, sliced per op);
//  * contiguous fan-out destination arrays, grouped by (op, out-port)
//    in graph-arc order — the emission order the engine must preserve;
//  * a per-context frame-slot layout: every strict op owns a fixed
//    range [frame_base, frame_base + num_inputs) of the context frame,
//    so token matching is a presence-bit set in a dense array (a true
//    ETS frame) instead of a hash-map slot lookup;
//  * the blank frame every context starts from (literal operands
//    filled and present) and per-op token-port masks, derived from the
//    fields above and never serialized (ExecProgram::derive_frames).
//
// The lowering is per-graph, not per-MachineOptions: LoopEntry's
// strictness depends on LoopMode (pipelined = non-strict), so the op
// table records base strictness flags and the engine resolves the mode-
// dependent part at run time. Labels are copied so diagnostics need no
// Graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dfg/graph.hpp"

namespace ctdf::machine {

/// One fan-out destination: the in-port fed by an out-port's arc.
struct ExecDest {
  dfg::NodeId node;
  std::uint16_t port = 0;
};

/// ExecOp::flags bits (base strictness; see header comment).
inline constexpr std::uint8_t kExecNonStrict = 1;  ///< Merge / LoopExit
inline constexpr std::uint8_t kExecLoopEntry = 2;
inline constexpr std::uint8_t kExecMem = 4;
inline constexpr std::uint8_t kExecWrite = 8;

inline constexpr std::uint32_t kNoFrameSlot = UINT32_MAX;

/// A framed op's state word while its activation is not created; once
/// a token arrives it counts the missing inputs.
inline constexpr std::uint16_t kFrameNotCreated = 0xFFFF;

/// A framed op's token (non-literal) ports as presence bits of the two
/// words its slot range starts in. A firing clears exactly these bits,
/// so the literal ports stay present for the next activation. A range
/// of more than 64 slots can reach a third word; such ops clear port by
/// port instead.
struct TokenMask {
  std::uint64_t first = 0;   ///< word frame_base / 64
  std::uint64_t second = 0;  ///< the word after it
};

/// One lowered operator. POD row of the dense op table; index == the
/// source dfg::NodeId.
struct ExecOp {
  dfg::OpKind kind = dfg::OpKind::kSynch;
  std::uint8_t flags = 0;
  std::uint16_t num_inputs = 0;
  std::uint16_t num_outputs = 0;
  /// Non-literal inputs: tokens one firing consumes, and the initial
  /// presence count of a freshly created frame slot.
  std::uint16_t consumed_inputs = 0;
  std::uint32_t first_operand = 0;  ///< into the operand tables
  std::uint32_t first_port = 0;     ///< into the fan-out port index
  /// First frame value slot of this op's matching range, kNoFrameSlot
  /// for ops that never rendezvous (Start, Merge, LoopExit).
  std::uint32_t frame_base = kNoFrameSlot;
  /// Dense index among framed ops (per-frame presence-state array).
  std::uint32_t strict_index = UINT32_MAX;

  lang::BinOp bop = lang::BinOp::kAdd;  ///< kBinOp (and kMacro binop heads)
  lang::UnOp uop = lang::UnOp::kNeg;    ///< kUnOp (and kMacro unop heads)
  std::uint32_t mem_base = 0;           ///< memory ops
  std::int64_t mem_extent = 1;          ///< memory ops (index wrapping)
  cfg::LoopId loop;                     ///< kLoopEntry / kLoopExit

  /// kMacro: the original head kind plus this op's slice of the dense
  /// fused-step table (ExecProgram::macro_steps).
  dfg::OpKind macro_head = dfg::OpKind::kBinOp;
  std::uint16_t num_steps = 0;
  std::uint32_t first_step = 0;

  [[nodiscard]] bool framed() const { return frame_base != kNoFrameSlot; }
};

/// The op table and the fan-out arrays as spans: what the engine reads
/// for every token, resolved once per run (ExecProgram::tables()) so a
/// token reaches them without going through the program's vectors.
struct ExecTables {
  std::span<const ExecOp> ops;
  std::span<const ExecDest> fanout;  ///< all dests, port-contiguous
  std::span<const std::uint32_t> fanout_begin;  ///< per (op, port), +1 sentinel

  [[nodiscard]] const ExecOp& op(dfg::NodeId n) const { return ops[n.index()]; }

  /// Fan-out destinations of (op, out-port), in graph-arc order.
  [[nodiscard]] std::span<const ExecDest> dests(const ExecOp& o,
                                                std::uint16_t port) const {
    const std::uint32_t p = o.first_port + port;
    return {fanout.data() + fanout_begin[p],
            fanout.data() + fanout_begin[p + 1]};
  }
};

class ExecProgram {
 public:
  [[nodiscard]] std::size_t num_ops() const { return ops_.size(); }
  [[nodiscard]] const ExecOp& op(std::uint32_t idx) const { return ops_[idx]; }
  [[nodiscard]] const ExecOp& op(dfg::NodeId n) const {
    return ops_[n.index()];
  }

  [[nodiscard]] dfg::NodeId start() const { return start_; }
  [[nodiscard]] dfg::NodeId end() const { return end_; }
  [[nodiscard]] std::span<const std::int64_t> start_values() const {
    return start_values_;
  }

  /// The engine's per-token view of this program; valid while the
  /// program lives and is not modified.
  [[nodiscard]] ExecTables tables() const {
    return {ops_, fanout_, fanout_begin_};
  }
  /// Fan-out destinations of (op, out-port), in graph-arc order.
  [[nodiscard]] std::span<const ExecDest> dests(const ExecOp& o,
                                                std::uint16_t port) const {
    return tables().dests(o, port);
  }

  [[nodiscard]] bool literal_at(const ExecOp& o, std::uint16_t port) const {
    return operand_is_literal_[o.first_operand + port] != 0;
  }
  [[nodiscard]] std::int64_t literal_value(const ExecOp& o,
                                           std::uint16_t port) const {
    return operand_literal_[o.first_operand + port];
  }

  [[nodiscard]] const std::string& label(std::uint32_t idx) const {
    return labels_[idx];
  }

  /// The fused ALU steps a kMacro op applies after its head fires.
  [[nodiscard]] std::span<const dfg::FusedStep> macro_steps(
      const ExecOp& o) const {
    return {macro_steps_.data() + o.first_step,
            macro_steps_.data() + o.first_step + o.num_steps};
  }

  /// Frame geometry: value/presence slots per context, and the number
  /// of ops carrying a slot range (the per-frame state array length).
  [[nodiscard]] std::size_t frame_slots() const { return frame_slots_; }
  [[nodiscard]] std::size_t num_framed_ops() const { return num_framed_; }

  /// A context frame record, in 64-bit words: the value slots, then the
  /// presence bits from presence_offset() (one word more than the slots
  /// need, so a token mask's second word always exists), then the
  /// framed ops' uint16_t state words from state_offset().
  [[nodiscard]] std::size_t presence_offset() const { return frame_slots_; }
  [[nodiscard]] std::size_t state_offset() const {
    return frame_slots_ + (frame_slots_ + 63) / 64 + 1;
  }
  /// The record a new context's frame is copied from: literal ports
  /// filled and present, token ports absent, every state
  /// kFrameNotCreated.
  [[nodiscard]] std::span<const std::uint64_t> blank_frame() const {
    return blank_frame_;
  }
  /// Per frame slot, 1 when it holds a literal operand. This is also
  /// the blank row of --check=integrity's shadow tags (literal ports
  /// start written).
  [[nodiscard]] std::span<const std::uint8_t> slot_literals() const {
    return slot_literals_;
  }
  /// Per framed op (by strict_index), the presence bits a firing clears.
  [[nodiscard]] std::span<const TokenMask> token_masks() const {
    return token_masks_;
  }

  /// Aggregates reported by the pipeline's `lower` stage trace.
  [[nodiscard]] std::size_t num_dests() const { return fanout_.size(); }
  [[nodiscard]] std::size_t num_literals() const {
    std::size_t n = 0;
    for (const std::uint8_t b : operand_is_literal_) n += b;
    return n;
  }

 private:
  friend ExecProgram lower(const dfg::Graph& g);
  /// Test-only seeded-defect injection (machine/mutate.hpp): the
  /// mutation harness edits a lowered program to break one translator
  /// invariant, proving --check=integrity is not vacuous.
  friend struct ProgramMutator;
  /// Versioned binary serialization (machine/blob.hpp): the codec
  /// walks every field below up to the derived frame data, so adding
  /// such a member means extending the blob format and bumping
  /// kBlobVersion.
  friend struct BlobCodec;

  /// Rebuilds the derived frame data below from the op table and the
  /// operand tables. lower(), the blob decoder and the mutation
  /// harness call it after they build or edit those.
  void derive_frames();

  std::vector<ExecOp> ops_;
  std::vector<ExecDest> fanout_;          ///< all dests, port-contiguous
  std::vector<std::uint32_t> fanout_begin_;  ///< per (op, port), +1 sentinel
  std::vector<std::uint8_t> operand_is_literal_;
  std::vector<std::int64_t> operand_literal_;
  std::vector<dfg::FusedStep> macro_steps_;  ///< all macro steps, op-contiguous
  std::vector<std::string> labels_;
  std::vector<std::int64_t> start_values_;
  dfg::NodeId start_;
  dfg::NodeId end_;
  std::size_t frame_slots_ = 0;
  std::size_t num_framed_ = 0;

  // Derived by derive_frames(); not part of the blob.
  std::vector<std::uint64_t> blank_frame_;
  std::vector<std::uint8_t> slot_literals_;
  std::vector<TokenMask> token_masks_;
};

/// Lowers a graph; O(nodes + arcs), run once per compilation (the
/// pipeline's `lower` stage) and cached in core::CompileResult.
[[nodiscard]] ExecProgram lower(const dfg::Graph& g);

/// Human-readable op-table rendering (`ctdf ... --dump-exec`).
[[nodiscard]] std::string render(const ExecProgram& p);

}  // namespace ctdf::machine
