#include "dfg/pass_manager.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"
#include "support/graph_algo.hpp"

namespace ctdf::dfg {

namespace {

/// Working representation: the arc list and an alive mask, edited
/// cheaply; node payloads are mutated in place on the graph and the
/// final shape is rebuilt once at the end.
struct Work {
  explicit Work(Graph& g) : g(g), alive(g.num_nodes(), true) {
    arcs = g.arcs();
  }

  Graph& g;
  std::vector<Arc> arcs;
  std::vector<bool> alive;

  [[nodiscard]] bool has_out_arc(NodeId n) const {
    return std::any_of(arcs.begin(), arcs.end(),
                       [&](const Arc& a) { return a.src == n; });
  }

  [[nodiscard]] bool port_wired(NodeId n, std::uint16_t p) const {
    return std::any_of(arcs.begin(), arcs.end(), [&](const Arc& a) {
      return a.dst == n && a.dst_port == p;
    });
  }

  [[nodiscard]] bool has_self_arc(NodeId n) const {
    return std::any_of(arcs.begin(), arcs.end(), [&](const Arc& a) {
      return a.src == n && a.dst == n;
    });
  }

  void drop_node_arcs(NodeId n) {
    std::erase_if(arcs, [&](const Arc& a) { return a.src == n || a.dst == n; });
  }

  /// Routes every in-arc of (n, value_port) straight to every consumer
  /// of n, then removes n — the shared "this operator is a wire" edit
  /// (merge collapsing, algebraic identities, redundant gates, synch
  /// bypass). The caller must have checked has_self_arc(n) is false.
  void bypass(NodeId n, std::uint16_t value_port) {
    std::vector<Arc> new_arcs;
    for (const Arc& in : arcs) {
      if (in.dst != n || in.dst_port != value_port) continue;
      for (const Arc& out : arcs) {
        if (out.src != n) continue;
        new_arcs.push_back(
            Arc{in.src, in.src_port, out.dst, out.dst_port, in.dummy});
      }
    }
    drop_node_arcs(n);
    arcs.insert(arcs.end(), new_arcs.begin(), new_arcs.end());
    alive[n.index()] = false;
  }
};

/// Side-effect-free kinds whose unused results may be dropped.
bool removable_when_unused(OpKind k) {
  switch (k) {
    case OpKind::kBinOp:
    case OpKind::kUnOp:
    case OpKind::kGate:
    case OpKind::kMerge:
    case OpKind::kSynch:
    case OpKind::kSwitch:
    case OpKind::kMacro:
    case OpKind::kLoad:
    case OpKind::kLoadIdx:
    case OpKind::kIFetch:
      return true;
    default:
      return false;
  }
}

/// Kinds that may be removed when they can never fire (an input port is
/// unwired). Loop entry/exit qualify too: the translator wires every
/// port, so an unwired port only arises when constant-switch folding
/// killed the control path feeding it — and that kills the sibling
/// ports' sources as well (they ride the same control paths), so the
/// whole node is dead and removal cascades consistently.
bool removable_when_unfireable(OpKind k) {
  switch (k) {
    case OpKind::kStart:
    case OpKind::kEnd:
      return false;
    default:
      return true;
  }
}

bool fold_constant_switches(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    const Node& node = w.g.node(n);
    if (node.kind != OpKind::kSwitch) continue;
    const Operand& pred = node.operands[port::kSwitchPred];
    if (!pred.is_literal) continue;
    const std::uint16_t taken =
        pred.literal != 0 ? port::kSwitchTrue : port::kSwitchFalse;

    // Route every data source directly to every taken-side consumer.
    std::vector<Arc> new_arcs;
    for (const Arc& in : w.arcs) {
      if (in.dst != n || in.dst_port != port::kSwitchData) continue;
      for (const Arc& out : w.arcs) {
        if (out.src != n || out.src_port != taken) continue;
        new_arcs.push_back(
            Arc{in.src, in.src_port, out.dst, out.dst_port, in.dummy});
      }
    }
    w.drop_node_arcs(n);
    w.arcs.insert(w.arcs.end(), new_arcs.begin(), new_arcs.end());
    w.alive[n.index()] = false;
    ++stats.switches_folded;
    changed = true;
  }
  return changed;
}

bool collapse_single_source_merges(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    const Node& node = w.g.node(n);
    if (node.kind != OpKind::kMerge) continue;
    // Replication trees inserted by lower_fanout are single-source by
    // design: collapsing one would restore the very fan-out the
    // lowering bounded.
    if (node.replicate) continue;
    const Arc* only_in = nullptr;
    bool single = true;
    for (const Arc& a : w.arcs) {
      if (a.dst != n) continue;
      if (only_in) {
        single = false;
        break;
      }
      only_in = &a;
    }
    if (!single || only_in == nullptr) continue;
    if (w.has_self_arc(n)) continue;
    w.bypass(n, only_in->dst_port);
    ++stats.merges_collapsed;
    changed = true;
  }
  return changed;
}

/// const-fold: algebraic identities through BinOps with one literal
/// operand. Identities (x+0, x-0, x*1, x/1) make the operator a wire;
/// absorbers (x*0, x%1, x&&0, x||c for c≠0) rewrite it to a Gate that
/// materializes the absorbing constant once the live token arrives (the
/// token must still be consumed — dropping it would change matching).
bool fold_constant_arith(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    Node& node = w.g.node(n);
    if (node.kind != OpKind::kBinOp) continue;
    const Operand& a = node.operands[0];
    const Operand& b = node.operands[1];
    if (a.is_literal == b.is_literal) continue;  // want exactly one literal
    const std::uint16_t value_port = a.is_literal ? 1 : 0;
    const std::int64_t lit = a.is_literal ? a.literal : b.literal;

    bool identity = false;
    bool absorb = false;
    std::int64_t absorbed = 0;
    switch (node.bop) {
      case lang::BinOp::kAdd:
        identity = lit == 0;
        break;
      case lang::BinOp::kSub:
        identity = lit == 0 && value_port == 0;
        break;
      case lang::BinOp::kMul:
        identity = lit == 1;
        absorb = lit == 0;
        break;
      case lang::BinOp::kDiv:
        identity = lit == 1 && value_port == 0;
        break;
      case lang::BinOp::kMod:
        absorb = lit == 1 && value_port == 0;
        break;
      case lang::BinOp::kAnd:
        absorb = lit == 0;
        break;
      case lang::BinOp::kOr:
        absorb = lit != 0;
        absorbed = 1;
        break;
      default:
        break;
    }
    if (!identity && !absorb) continue;

    if (identity) {
      if (w.has_self_arc(n)) continue;
      w.bypass(n, value_port);
    } else {
      // Rewrite to Gate: port 0 = the absorbing constant, port 1 = the
      // live operand as trigger.
      for (Arc& arc : w.arcs)
        if (arc.dst == n && arc.dst_port == value_port) arc.dst_port = 1;
      node.kind = OpKind::kGate;
      node.operands[0] = Operand{true, absorbed};
      node.operands[1] = Operand{};
    }
    ++stats.consts_folded;
    changed = true;
  }
  return changed;
}

/// switch-elim: a Switch whose true and false sides feed identical
/// consumer multisets routes the same way regardless of the predicate —
/// it degrades to a Gate (value = data, trigger = predicate), which
/// still consumes the predicate token, preserving any ordering edge
/// riding it. A Gate whose trigger is literal, or whose value and
/// trigger fan out from one source port, is a wire.
bool eliminate_redundant_switches(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    Node& node = w.g.node(n);

    if (node.kind == OpKind::kSwitch) {
      if (node.operands[port::kSwitchPred].is_literal) continue;  // fold-switch
      using Dest = std::tuple<std::uint32_t, std::uint16_t, bool>;
      std::vector<Dest> outs_true, outs_false;
      for (const Arc& out : w.arcs) {
        if (out.src != n) continue;
        auto& side =
            out.src_port == port::kSwitchTrue ? outs_true : outs_false;
        side.emplace_back(out.dst.value(), out.dst_port, out.dummy);
      }
      std::sort(outs_true.begin(), outs_true.end());
      std::sort(outs_false.begin(), outs_false.end());
      if (outs_true.empty() || outs_true != outs_false) continue;
      std::erase_if(w.arcs, [&](const Arc& a) {
        return a.src == n && a.src_port == port::kSwitchFalse;
      });
      node.kind = OpKind::kGate;  // [data, pred] → [value, trigger]
      node.num_outputs = 1;
      ++stats.switches_elim;
      changed = true;
      continue;
    }

    if (node.kind != OpKind::kGate) continue;
    if (node.operands[0].is_literal) continue;  // constant materializer
    if (node.operands[1].is_literal) {
      // Literal trigger: fires as soon as the value arrives — a wire.
      if (w.has_self_arc(n)) continue;
      w.bypass(n, 0);
      ++stats.switches_elim;
      changed = true;
      continue;
    }
    // Value and trigger from the same source port (each port fed by
    // exactly one arc): both tokens come from one emission, so the gate
    // adds nothing.
    const Arc* in_value = nullptr;
    const Arc* in_trigger = nullptr;
    bool simple = true;
    for (const Arc& arc : w.arcs) {
      if (arc.dst != n) continue;
      const Arc*& slot = arc.dst_port == 0 ? in_value : in_trigger;
      if (slot) {
        simple = false;
        break;
      }
      slot = &arc;
    }
    if (!simple || !in_value || !in_trigger) continue;
    if (in_value->src != in_trigger->src ||
        in_value->src_port != in_trigger->src_port)
      continue;
    if (w.has_self_arc(n)) continue;
    w.bypass(n, 0);
    ++stats.switches_elim;
    changed = true;
  }
  return changed;
}

/// True when (kind, port) ignores the arriving token's value — trigger
/// and access-token ports. A synch feeding only such ports can be
/// bypassed without changing any observable value.
bool value_insensitive(OpKind kind, std::uint16_t p) {
  switch (kind) {
    case OpKind::kSynch:
    case OpKind::kEnd:
      return true;
    case OpKind::kGate: return p == 1;
    case OpKind::kLoad: return p == 0;
    case OpKind::kLoadIdx: return p == 1;
    case OpKind::kStore: return p == 1;
    case OpKind::kStoreIdx: return p == 2;
    case OpKind::kIStore: return p == 2;
    case OpKind::kIFetch: return p == 1;
    default:
      return false;
  }
}

/// synch-narrow: drop literal synch operands, merge a synch whose only
/// consumer is another synch into it, and bypass a 1-input synch whose
/// consumers all ignore the token value.
bool narrow_synch_trees(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    Node& node = w.g.node(n);
    if (node.kind != OpKind::kSynch) continue;

    // (a) Literal operands never gate firing usefully: narrow them away.
    std::size_t live_ports = 0;
    for (const Operand& op : node.operands)
      if (!op.is_literal) ++live_ports;
    if (live_ports > 0 && live_ports < node.num_inputs) {
      std::vector<std::uint16_t> remap(node.num_inputs, 0);
      std::uint16_t next = 0;
      for (std::uint16_t p = 0; p < node.num_inputs; ++p)
        if (!node.operands[p].is_literal) remap[p] = next++;
      for (Arc& arc : w.arcs)
        if (arc.dst == n) arc.dst_port = remap[arc.dst_port];
      node.num_inputs = static_cast<std::uint16_t>(live_ports);
      node.operands.assign(live_ports, Operand{});
      ++stats.synchs_narrowed;
      changed = true;
    }

    // (b) Sole consumer is another synch: merge this one into it.
    const Arc* only_out = nullptr;
    bool single_out = true;
    for (const Arc& arc : w.arcs) {
      if (arc.src != n) continue;
      if (only_out) {
        single_out = false;
        break;
      }
      only_out = &arc;
    }
    if (single_out && only_out && only_out->dst != n) {
      const NodeId consumer = only_out->dst;
      const std::uint16_t cport = only_out->dst_port;
      Node& cnode = w.g.node(consumer);
      if (w.alive[consumer.index()] && cnode.kind == OpKind::kSynch) {
        std::size_t fan_in = 0;
        for (const Arc& arc : w.arcs)
          if (arc.dst == consumer && arc.dst_port == cport) ++fan_in;
        if (fan_in == 1) {
          // Consumer port layout: drop cport, append this synch's ports.
          const std::uint16_t base =
              static_cast<std::uint16_t>(cnode.num_inputs - 1);
          std::erase_if(w.arcs, [&](const Arc& arc) {
            return arc.src == n && arc.dst == consumer;
          });
          for (Arc& arc : w.arcs) {
            if (arc.dst == consumer && arc.dst_port > cport) --arc.dst_port;
            if (arc.dst == n) {
              arc.dst = consumer;
              arc.dst_port = static_cast<std::uint16_t>(base + arc.dst_port);
            }
          }
          cnode.operands.erase(cnode.operands.begin() + cport);
          cnode.operands.append(node.operands.begin(), node.operands.end());
          cnode.num_inputs =
              static_cast<std::uint16_t>(base + node.num_inputs);
          w.alive[n.index()] = false;
          ++stats.synchs_narrowed;
          changed = true;
          continue;
        }
      }
    }

    // (c) One input, every consumer ignores the value: a wire.
    if (node.num_inputs == 1 && !node.operands[0].is_literal) {
      bool all_insensitive = true;
      bool has_out = false;
      for (const Arc& arc : w.arcs) {
        if (arc.src != n) continue;
        has_out = true;
        const Node& dst = w.g.node(arc.dst);
        if (!value_insensitive(dst.kind, arc.dst_port)) {
          all_insensitive = false;
          break;
        }
      }
      if (has_out && all_insensitive && !w.has_self_arc(n)) {
        w.bypass(n, 0);
        ++stats.synchs_narrowed;
        changed = true;
      }
    }
  }
  return changed;
}

bool eliminate_dead_and_unfireable(Work& w, OptStats& stats) {
  bool changed = false;
  for (NodeId n : w.g.all_nodes()) {
    if (!w.alive[n.index()]) continue;
    const Node& node = w.g.node(n);

    if (removable_when_unused(node.kind) && !w.has_out_arc(n)) {
      w.drop_node_arcs(n);
      w.alive[n.index()] = false;
      ++stats.dead_removed;
      changed = true;
      continue;
    }

    if (!removable_when_unfireable(node.kind)) continue;
    bool unfireable = false;
    for (std::uint16_t p = 0; p < node.num_inputs; ++p) {
      if (node.operands[p].is_literal) continue;
      if (!w.port_wired(n, p)) {
        unfireable = true;
        break;
      }
    }
    // A node with no token inputs at all would never fire either, but
    // the translator does not produce those; treat them as unfireable
    // too for safety (all-literal inputs).
    if (!unfireable && node.num_inputs > 0) {
      unfireable = std::all_of(
          node.operands.begin(), node.operands.end(),
          [](const Operand& op) { return op.is_literal; });
    }
    if (unfireable) {
      w.drop_node_arcs(n);
      w.alive[n.index()] = false;
      ++stats.unfireable_removed;
      changed = true;
    }
  }
  return changed;
}

/// Replaces `g` by its nodes with alive[n] set, in id order, joined by
/// `arcs` in list order (each arc must join two live nodes).
void rebuild(Graph& g, const std::vector<bool>& alive,
             const std::vector<Arc>& arcs) {
  Graph rebuilt;
  std::vector<NodeId> remap(g.num_nodes());
  for (NodeId n : g.all_nodes()) {
    if (!alive[n.index()]) continue;
    Node copy = g.node(n);
    remap[n.index()] = rebuilt.add(std::move(copy));
  }
  rebuilt.set_start(remap[g.start().index()]);
  rebuilt.set_end(remap[g.end().index()]);
  for (const Arc& a : arcs) {
    CTDF_ASSERT(alive[a.src.index()] && alive[a.dst.index()]);
    rebuilt.connect({remap[a.src.index()], a.src_port},
                    {remap[a.dst.index()], a.dst_port}, a.dummy);
  }
  g = std::move(rebuilt);
}

/// Kinds a fused chain may contain: strict, pure, single-output.
bool fuseable_kind(OpKind k) {
  return k == OpKind::kBinOp || k == OpKind::kUnOp || k == OpKind::kGate ||
         k == OpKind::kSynch;
}

FusedStep make_step(const Node& t, std::uint16_t value_port) {
  FusedStep s;
  s.kind = t.kind;
  s.value_port = value_port;
  switch (t.kind) {
    case OpKind::kBinOp:
      s.bop = t.bop;
      s.literal = t.operands[value_port == 0 ? 1 : 0].literal;
      break;
    case OpKind::kUnOp:
      s.uop = t.uop;
      break;
    case OpKind::kGate:
      if (value_port == 1) s.literal = t.operands[0].literal;
      break;
    case OpKind::kSynch:
      break;
    default:
      CTDF_UNREACHABLE("not a fuseable tail");
  }
  return s;
}

/// fuse: collapse linear chains of single-consumer pure ops into
/// kMacro nodes.
void fuse_chains(Graph& g, OptStats& stats) {
  const std::size_t n = g.num_nodes();
  std::vector<Arc> arcs = g.arcs();
  std::vector<bool> alive(n, true);

  // Per-node arc summaries for the chain-link test.
  std::vector<std::uint32_t> out_count(n, 0);
  std::vector<std::uint32_t> in_count(n, 0);
  std::vector<std::size_t> only_in(n, SIZE_MAX);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    ++out_count[arcs[i].src.index()];
    ++in_count[arcs[i].dst.index()];
    only_in[arcs[i].dst.index()] = i;
  }

  // Sole non-literal input port of each node, or kNoPort.
  constexpr std::uint16_t kNoPort = UINT16_MAX;
  std::vector<std::uint16_t> value_port(n, kNoPort);
  for (NodeId node_id : g.all_nodes()) {
    const Node& node = g.node(node_id);
    std::uint16_t vp = kNoPort;
    bool sole = true;
    for (std::uint16_t p = 0; p < node.num_inputs; ++p) {
      if (node.operands[p].is_literal) continue;
      if (vp != kNoPort) {
        sole = false;
        break;
      }
      vp = p;
    }
    if (sole && vp != kNoPort) value_port[node_id.index()] = vp;
  }

  // prev[t] = s when t can be absorbed as s's fused tail: t's only
  // token input is s's only output arc, and both are fuseable kinds.
  // (Arcs into literal ports are impossible, so in_count == 1 means the
  // single arc lands on t's sole value port.)
  std::vector<NodeId> prev(n), next(n);
  for (std::size_t ti = 0; ti < n; ++ti) {
    const NodeId t{static_cast<std::uint32_t>(ti)};
    if (!fuseable_kind(g.node(t).kind)) continue;
    if (value_port[ti] == kNoPort) continue;
    if (in_count[ti] != 1) continue;
    const Arc& a = arcs[only_in[ti]];
    const NodeId s = a.src;
    if (s == t || a.src_port != 0) continue;
    if (!fuseable_kind(g.node(s).kind)) continue;
    if (g.node(s).num_outputs != 1 || out_count[s.index()] != 1) continue;
    prev[ti] = s;
    next[s.index()] = t;
  }

  // Chain heads: fuseable single-output nodes that extend forward but
  // are not themselves absorbable. Chains are disjoint and each is fused
  // whole, so the order they are taken in does not matter.
  std::vector<NodeId> heads;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId h{static_cast<std::uint32_t>(i)};
    const Node& node = g.node(h);
    if (!fuseable_kind(node.kind) || node.num_outputs != 1) continue;
    if (!next[i].valid() || prev[i].valid()) continue;
    heads.push_back(h);
  }

  bool any = false;
  for (const NodeId h : heads) {
    // Walk the maximal chain (the visited guard is belt-and-braces: a
    // cycle of sole-consumer pure ops has no head by construction).
    std::vector<NodeId> chain{h};
    std::vector<bool> in_chain(n, false);
    in_chain[h.index()] = true;
    for (NodeId t = next[h.index()];
         t.valid() && !in_chain[t.index()];
         t = next[t.index()]) {
      chain.push_back(t);
      in_chain[t.index()] = true;
    }

    // Fuse kFuseLimit-sized segments; a trailing singleton stays as-is.
    for (std::size_t begin = 0; begin + 1 < chain.size();
         begin += kFuseLimit) {
      const std::size_t len = std::min(kFuseLimit, chain.size() - begin);
      if (len < 2) break;
      const NodeId head = chain[begin];
      Node& head_node = g.node(head);
      head_node.head_kind = head_node.kind;
      head_node.kind = OpKind::kMacro;
      for (std::size_t i = 1; i < len; ++i) {
        const NodeId tail = chain[begin + i];
        head_node.steps.push_back(
            make_step(g.node(tail), value_port[tail.index()]));
        alive[tail.index()] = false;
      }
      const NodeId last = chain[begin + len - 1];
      // Drop the chain-internal arcs, then hand the last tail's output
      // to the macro.
      std::erase_if(arcs, [&](const Arc& a) {
        return a.src != last && in_chain[a.src.index()] &&
               static_cast<std::size_t>(
                   std::find(chain.begin() + begin, chain.end(), a.src) -
                   chain.begin()) < begin + len - 1;
      });
      for (Arc& a : arcs) {
        if (a.src != last) continue;
        a.src = head;
        a.src_port = 0;
      }
      ++stats.chains_fused;
      stats.ops_fused += len - 1;
      ++stats.fused_len_hist[len - 2];
      any = true;
    }
  }
  if (any) rebuild(g, alive, arcs);
}

}  // namespace

OptStats run_passes(Graph& g, OptLevel level) {
  OptStats stats;
  if (level == OptLevel::kNone) return stats;
  const std::size_t initial_nodes = g.num_nodes();

  {
    Work w(g);
    bool dirty = false;
    bool changed = true;
    while (changed) {
      ++stats.iterations;
      changed = fold_constant_switches(w, stats);
      changed |= collapse_single_source_merges(w, stats);
      changed |= fold_constant_arith(w, stats);
      changed |= eliminate_redundant_switches(w, stats);
      changed |= narrow_synch_trees(w, stats);
      changed |= eliminate_dead_and_unfireable(w, stats);
      dirty |= changed;
    }
    if (dirty) rebuild(g, w.alive, w.arcs);
  }

  {
    const FlowView view(g);
    support::GraphAlgo<NodeId> algo;
    support::build_order(view, algo);
    support::build_dominators(view, algo);
    support::build_loops(view, algo);
    stats.max_loop_depth = algo.max_loop_depth();
  }
  if (level == OptLevel::kAll) fuse_chains(g, stats);

  stats.nodes_removed = initial_nodes - g.num_nodes();
  return stats;
}

}  // namespace ctdf::dfg
