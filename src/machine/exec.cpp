#include "machine/exec.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace ctdf::machine {

ExecProgram lower(const dfg::Graph& g) {
  ExecProgram p;
  const std::size_t n = g.num_nodes();
  p.ops_.resize(n);
  p.labels_.resize(n);
  p.start_ = g.start();
  p.end_ = g.end();

  // Pass 1: op table rows, operand tables, frame-slot layout. The
  // operand and macro-step tables are sized first, so they grow once.
  std::size_t num_operands = 0;
  std::size_t num_steps = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const dfg::Node& node = g.node(dfg::NodeId{i});
    num_operands += node.num_inputs;
    if (node.kind == dfg::OpKind::kMacro) num_steps += node.steps.size();
  }
  p.operand_is_literal_.reserve(num_operands);
  p.operand_literal_.reserve(num_operands);
  p.macro_steps_.reserve(num_steps);
  std::uint32_t operand_cursor = 0;
  std::uint32_t port_cursor = 0;
  std::uint32_t frame_cursor = 0;
  std::uint32_t strict_cursor = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const dfg::Node& node = g.node(dfg::NodeId{i});
    ExecOp& op = p.ops_[i];
    op.kind = node.kind;
    op.num_inputs = node.num_inputs;
    op.num_outputs = node.num_outputs;
    op.bop = node.bop;
    op.uop = node.uop;
    op.mem_base = node.mem_base;
    op.mem_extent = node.mem_extent;
    op.loop = node.loop;
    if (dfg::is_non_strict_base(node.kind)) op.flags |= kExecNonStrict;
    if (node.kind == dfg::OpKind::kLoopEntry) op.flags |= kExecLoopEntry;
    if (dfg::is_memory_op(node.kind)) op.flags |= kExecMem;
    if (dfg::is_write_op(node.kind)) op.flags |= kExecWrite;

    op.first_operand = operand_cursor;
    CTDF_ASSERT(node.operands.size() == node.num_inputs);
    for (std::uint16_t in = 0; in < node.num_inputs; ++in) {
      const dfg::Operand& o = node.operands[in];
      p.operand_is_literal_.push_back(o.is_literal ? 1 : 0);
      p.operand_literal_.push_back(o.literal);
      if (!o.is_literal) ++op.consumed_inputs;
    }
    operand_cursor += node.num_inputs;

    op.first_port = port_cursor;
    port_cursor += node.num_outputs;

    // Start never receives tokens and Merge/LoopExit forward each token
    // immediately; everything else rendezvouses in a frame-slot range.
    // (LoopEntry keeps its range even though pipelined mode bypasses
    // it: strictness there is a machine-mode decision, not a graph one.)
    if (node.kind != dfg::OpKind::kStart &&
        !dfg::is_non_strict_base(node.kind)) {
      op.frame_base = frame_cursor;
      frame_cursor += node.num_inputs;
      op.strict_index = strict_cursor++;
    }

    if (node.kind == dfg::OpKind::kMacro) {
      op.macro_head = node.head_kind;
      op.first_step = static_cast<std::uint32_t>(p.macro_steps_.size());
      op.num_steps = static_cast<std::uint16_t>(node.steps.size());
      p.macro_steps_.insert(p.macro_steps_.end(), node.steps.begin(),
                            node.steps.end());
    }

    if (node.kind == dfg::OpKind::kStart)
      p.start_values_ = node.start_values;
    p.labels_[i] = node.label;
  }
  p.frame_slots_ = frame_cursor;
  p.num_framed_ = strict_cursor;

  // Pass 2: fan-out destinations, grouped per (op, out-port). Within a
  // port, graph-arc order is preserved — the engine's emission order
  // (and hence ready-queue order and RunStats) depends on it.
  p.fanout_begin_.assign(port_cursor + 1, 0);
  for (const dfg::Arc& a : g.arcs())
    ++p.fanout_begin_[p.ops_[a.src.index()].first_port + a.src_port + 1];
  for (std::size_t i = 1; i < p.fanout_begin_.size(); ++i)
    p.fanout_begin_[i] += p.fanout_begin_[i - 1];
  p.fanout_.resize(g.num_arcs());
  {
    std::vector<std::uint32_t> cursor(
        p.fanout_begin_.begin(), p.fanout_begin_.end() - 1);
    for (const dfg::Arc& a : g.arcs())
      p.fanout_[cursor[p.ops_[a.src.index()].first_port + a.src_port]++] =
          ExecDest{a.dst, a.dst_port};
  }
  p.derive_frames();
  return p;
}

void ExecProgram::derive_frames() {
  const std::size_t states = state_offset();
  blank_frame_.assign(states + (num_framed_ + 3) / 4, 0);
  // Every uint16_t state word starts kFrameNotCreated.
  static_assert(kFrameNotCreated == 0xFFFF);
  std::fill(blank_frame_.begin() + static_cast<std::ptrdiff_t>(states),
            blank_frame_.end(), ~std::uint64_t{0});
  slot_literals_.assign(frame_slots_, 0);
  token_masks_.assign(num_framed_, TokenMask{});
  for (const ExecOp& op : ops_) {
    if (!op.framed()) continue;
    TokenMask& mask = token_masks_[op.strict_index];
    const std::uint32_t first_word = op.frame_base / 64;
    for (std::uint16_t p = 0; p < op.num_inputs; ++p) {
      const std::uint32_t slot = op.frame_base + p;
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      if (literal_at(op, p)) {
        blank_frame_[slot] = static_cast<std::uint64_t>(literal_value(op, p));
        blank_frame_[presence_offset() + slot / 64] |= bit;
        slot_literals_[slot] = 1;
      } else if (slot / 64 == first_word) {
        mask.first |= bit;
      } else if (slot / 64 == first_word + 1) {
        mask.second |= bit;
      }
    }
  }
}

std::string render(const ExecProgram& p) {
  std::ostringstream os;
  os << "exec program: " << p.num_ops() << " ops, " << p.num_dests()
     << " dests, " << p.frame_slots() << " frame slots ("
     << p.num_framed_ops() << " framed ops), " << p.num_literals()
     << " literal operands\n";
  for (std::uint32_t i = 0; i < p.num_ops(); ++i) {
    const ExecOp& op = p.op(i);
    os << "  [" << i << "] " << to_string(op.kind);
    if (!p.label(i).empty()) os << " '" << p.label(i) << "'";
    os << " in=" << op.num_inputs << " out=" << op.num_outputs;
    if (op.framed())
      os << " frame=" << op.frame_base << ".."
         << op.frame_base + op.num_inputs;
    else
      os << " frame=-";
    if (op.flags & kExecNonStrict) os << " non-strict";
    if (op.flags & kExecLoopEntry) os << " loop=" << op.loop.value();
    if (op.kind == dfg::OpKind::kLoopExit) os << " loop=" << op.loop.value();
    if (op.flags & kExecMem)
      os << " mem=" << op.mem_base << "+" << op.mem_extent;
    if (op.kind == dfg::OpKind::kMacro)
      os << " head=" << to_string(op.macro_head) << " steps=" << op.num_steps;
    for (std::uint16_t in = 0; in < op.num_inputs; ++in)
      if (p.literal_at(op, in))
        os << " lit[" << in << "]=" << p.literal_value(op, in);
    for (std::uint16_t out = 0; out < op.num_outputs; ++out) {
      os << " p" << out << "->{";
      bool first = true;
      for (const ExecDest& d : p.dests(op, out)) {
        os << (first ? "" : " ") << d.node.value() << ":" << d.port;
        first = false;
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ctdf::machine
