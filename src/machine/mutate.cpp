#include "machine/mutate.hpp"

#include <cstddef>

namespace ctdf::machine {

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kDupFanoutArc: return "dup-fanout-arc";
    case Mutation::kMiswireFanoutPort: return "miswire-fanout-port";
    case Mutation::kDropGateArc: return "drop-gate-arc";
    case Mutation::kUndercountArity: return "undercount-arity";
    case Mutation::kSkipSynch: return "skip-synch";
    case Mutation::kAliasIStoreBase: return "alias-istore-base";
    case Mutation::kDupMemResponse: return "dup-mem-response";
  }
  return "?";
}

/// The friend of ExecProgram (see exec.hpp): all raw-table surgery lives
/// here, keyed by flat fan-out index. fanout_begin_ holds one boundary
/// per (op, out-port) plus a sentinel, so inserting or erasing a dest at
/// flat index i shifts every boundary strictly greater than i.
struct ProgramMutator {
  static std::vector<ExecOp>& ops(ExecProgram& ep) { return ep.ops_; }
  static std::vector<ExecDest>& fanout(ExecProgram& ep) { return ep.fanout_; }

  static void insert_dest(ExecProgram& ep, std::size_t i, ExecDest d) {
    ep.fanout_.insert(ep.fanout_.begin() + static_cast<std::ptrdiff_t>(i), d);
    for (std::uint32_t& b : ep.fanout_begin_)
      if (b > i) ++b;
  }

  static void erase_dest(ExecProgram& ep, std::size_t i) {
    ep.fanout_.erase(ep.fanout_.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::uint32_t& b : ep.fanout_begin_)
      if (b > i) --b;
  }

  /// A mutation may change arities: rebuild the blank frame and the
  /// token masks the engine takes from the op table.
  static void refresh(ExecProgram& ep) { ep.derive_frames(); }
};

namespace {

/// A strict rendezvous target whose matching slot can legally hold a
/// pending token: the duplicate arrives while the first copy waits.
bool strict_multi_input(const ExecOp& op) {
  return op.framed() && op.consumed_inputs >= 2 &&
         (op.flags & (kExecNonStrict | kExecLoopEntry)) == 0 &&
         op.kind != dfg::OpKind::kEnd;
}

/// First flat fan-out index of a dest matching `pred`, or npos.
template <class Pred>
std::size_t find_dest(ExecProgram& ep, Pred&& pred) {
  const std::vector<ExecDest>& f = ProgramMutator::fanout(ep);
  for (std::size_t i = 0; i < f.size(); ++i)
    if (pred(f[i])) return i;
  return static_cast<std::size_t>(-1);
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool dup_fanout_arc(ExecProgram& ep) {
  const std::size_t i = find_dest(ep, [&](const ExecDest& d) {
    const ExecOp& t = ep.op(d.node);
    return strict_multi_input(t) && !ep.literal_at(t, d.port);
  });
  if (i == kNpos) return false;
  ProgramMutator::insert_dest(ep, i + 1, ProgramMutator::fanout(ep)[i]);
  return true;
}

bool miswire_fanout_port(ExecProgram& ep) {
  for (std::uint32_t n = 0; n < ep.num_ops(); ++n) {
    const ExecOp& t = ep.op(n);
    if (!strict_multi_input(t)) continue;
    // The op's first two token-carrying ports: retarget the arc feeding
    // the second onto the first.
    std::uint16_t ports[2];
    std::uint16_t found = 0;
    for (std::uint16_t p = 0; p < t.num_inputs && found < 2; ++p)
      if (!ep.literal_at(t, p)) ports[found++] = p;
    if (found < 2) continue;
    const std::size_t i = find_dest(ep, [&](const ExecDest& d) {
      return d.node.index() == n && d.port == ports[1];
    });
    if (i == kNpos) continue;
    ProgramMutator::fanout(ep)[i].port = ports[0];
    return true;
  }
  return false;
}

bool drop_gate_arc(ExecProgram& ep) {
  const std::size_t i = find_dest(ep, [&](const ExecDest& d) {
    const ExecOp& t = ep.op(d.node);
    return t.kind == dfg::OpKind::kGate && !ep.literal_at(t, d.port);
  });
  if (i == kNpos) return false;
  ProgramMutator::erase_dest(ep, i);
  return true;
}

/// Index of the op feeding (target, port), or kNpos.
std::size_t source_of(const ExecProgram& ep, std::uint32_t target,
                      std::uint16_t port) {
  for (std::uint32_t u = 0; u < ep.num_ops(); ++u) {
    const ExecOp& o = ep.op(u);
    for (std::uint16_t q = 0; q < o.num_outputs; ++q)
      for (const ExecDest& d : ep.dests(o, q))
        if (d.node.index() == target && d.port == port) return u;
  }
  return kNpos;
}

bool undercount_arity(ExecProgram& ep) {
  for (std::uint32_t n = 0; n < ep.num_ops(); ++n) {
    ExecOp& op = ProgramMutator::ops(ep)[n];
    if (!strict_multi_input(op)) continue;
    // Require the two token inputs to come from distinct producers so
    // the op observably fires one token early (same-producer inputs
    // arrive in the same cycle — the firing would never be premature).
    std::uint16_t ports[2];
    std::uint16_t found = 0;
    for (std::uint16_t p = 0; p < op.num_inputs && found < 2; ++p)
      if (!ep.literal_at(op, p)) ports[found++] = p;
    if (found < 2) continue;
    const std::size_t a = source_of(ep, n, ports[0]);
    const std::size_t b = source_of(ep, n, ports[1]);
    if (a == kNpos || b == kNpos || a == b) continue;
    --op.consumed_inputs;
    return true;
  }
  return false;
}

bool skip_synch(ExecProgram& ep) {
  for (std::uint32_t n = 0; n < ep.num_ops(); ++n) {
    ExecOp& op = ProgramMutator::ops(ep)[n];
    if (op.kind != dfg::OpKind::kSynch || op.consumed_inputs < 2) continue;
    // Drop the arc into the last port (by convention the ordering
    // input: the ack edge from the guarded access's predecessor) and
    // shrink the arity coherently so the synch fires one token early
    // rather than never.
    const std::uint16_t last = static_cast<std::uint16_t>(op.num_inputs - 1);
    if (ep.literal_at(op, last)) continue;
    const std::size_t i = find_dest(ep, [&](const ExecDest& d) {
      return d.node.index() == n && d.port == last;
    });
    if (i == kNpos) continue;
    ProgramMutator::erase_dest(ep, i);
    --op.num_inputs;
    --op.consumed_inputs;
    return true;
  }
  return false;
}

bool alias_istore_base(ExecProgram& ep) {
  const ExecOp* first = nullptr;
  for (ExecOp& op : ProgramMutator::ops(ep)) {
    if (op.kind != dfg::OpKind::kIStore) continue;
    if (!first) {
      first = &op;
      continue;
    }
    op.mem_base = first->mem_base;
    op.mem_extent = first->mem_extent;
    return true;
  }
  return false;
}

bool mutate(ExecProgram& ep, Mutation m) {
  switch (m) {
    case Mutation::kDupFanoutArc: return dup_fanout_arc(ep);
    case Mutation::kMiswireFanoutPort: return miswire_fanout_port(ep);
    case Mutation::kDropGateArc: return drop_gate_arc(ep);
    case Mutation::kUndercountArity: return undercount_arity(ep);
    case Mutation::kSkipSynch: return skip_synch(ep);
    case Mutation::kAliasIStoreBase: return alias_istore_base(ep);
    case Mutation::kDupMemResponse: return false;  // options hook
  }
  return false;
}

}  // namespace

bool apply_mutation(ExecProgram& ep, Mutation m) {
  if (!mutate(ep, m)) return false;
  ProgramMutator::refresh(ep);
  return true;
}

}  // namespace ctdf::machine
