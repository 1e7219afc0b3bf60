#include "cfg/intervals.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "cfg/dominance.hpp"
#include "support/assert.hpp"

namespace ctdf::cfg {

namespace {

using NodeSet = std::unordered_set<NodeId::underlying_type>;

bool contains(const NodeSet& s, NodeId n) { return s.contains(n.value()); }

/// Scratch shared by every level of node splitting, sized once per
/// round.
///
/// Regions are sets of nodes that are only ever tested for membership,
/// so they are stamps: node n is in region r iff region[n] == r, and a
/// region is narrowed by stamping its members with a fresh id. Nodes
/// cloned during the round have no stamp and so are in no region.
///
/// The SCCs of every open split_pass level lie back to back in
/// scc_nodes, one end offset per SCC in scc_ends; a level appends its
/// SCCs after its caller's and truncates back to them on return.
struct SplitScratch {
  static constexpr std::uint32_t kNoRegion = 0;

  struct Info {
    std::uint32_t index = UINT32_MAX;
    std::uint32_t lowlink = 0;
    bool on_stack = false;
  };
  struct Frame {
    NodeId node;
    std::uint32_t i = 0;  ///< next successor, by position
  };

  std::vector<std::uint32_t> region;
  std::uint32_t last_region = kNoRegion;
  std::vector<Info> info;
  std::vector<NodeId> stack;
  std::vector<Frame> dfs;
  std::vector<NodeId> scc_nodes;
  std::vector<std::uint32_t> scc_ends;
  std::vector<std::pair<NodeId, int>> entries;  ///< (node, external preds)
  std::vector<NodeId> preds;

  [[nodiscard]] bool in(std::uint32_t r, NodeId n) const {
    return n.index() < region.size() && region[n.index()] == r;
  }

  /// Stamps `nodes` as a fresh region and returns its id.
  std::uint32_t make_region(std::span<const NodeId> nodes) {
    ++last_region;
    for (NodeId n : nodes) region[n.index()] = last_region;
    return last_region;
  }

  /// Starts a round over a graph of `size` nodes, all in one region.
  std::uint32_t reset(std::size_t size) {
    last_region = kNoRegion + 1;
    region.assign(size, last_region);
    info.resize(size);
    scc_nodes.clear();
    scc_ends.clear();
    return last_region;
  }
};

/// Appends the Tarjan SCCs of the subgraph induced by region `r` to
/// scratch.scc_nodes / scc_ends (iterative; roots in ascending id
/// order, each SCC in stack-pop order).
void sccs_in_region(const Graph& g, std::uint32_t r, SplitScratch& sc) {
  for (NodeId n : g.all_nodes())
    if (sc.in(r, n)) sc.info[n.index()] = {};
  std::uint32_t counter = 0;
  const auto visit = [&](NodeId v) {
    SplitScratch::Info& iv = sc.info[v.index()];
    iv.index = iv.lowlink = counter++;
    iv.on_stack = true;
    sc.stack.push_back(v);
    sc.dfs.push_back({v});
  };

  for (NodeId root : g.all_nodes()) {
    if (!sc.in(r, root) || sc.info[root.index()].index != UINT32_MAX)
      continue;
    visit(root);
    while (!sc.dfs.empty()) {
      SplitScratch::Frame& f = sc.dfs.back();
      const Succs succs = g.succs(f.node);
      if (f.i < succs.size()) {
        const NodeId w = succs[f.i++];
        if (!sc.in(r, w)) continue;
        if (sc.info[w.index()].index == UINT32_MAX) {
          visit(w);
        } else if (sc.info[w.index()].on_stack) {
          std::uint32_t& low = sc.info[f.node.index()].lowlink;
          low = std::min(low, sc.info[w.index()].index);
        }
      } else {
        const NodeId v = f.node;
        sc.dfs.pop_back();
        const SplitScratch::Info& iv = sc.info[v.index()];
        if (!sc.dfs.empty()) {
          std::uint32_t& low = sc.info[sc.dfs.back().node.index()].lowlink;
          low = std::min(low, iv.lowlink);
        }
        if (iv.lowlink == iv.index) {
          for (;;) {
            const NodeId w = sc.stack.back();
            sc.stack.pop_back();
            sc.info[w.index()].on_stack = false;
            sc.scc_nodes.push_back(w);
            if (w == v) break;
          }
          sc.scc_ends.push_back(
              static_cast<std::uint32_t>(sc.scc_nodes.size()));
        }
      }
    }
  }
}

bool has_self_edge(const Graph& g, NodeId n) {
  const Node& node = g.node(n);
  return node.succ_true == n || node.succ_false == n;
}

NodeId clone_node(Graph& g, NodeId n) {
  const Node& node = g.node(n);
  // add_* may grow the node vector and invalidate `node`; copy the
  // successors out before allocating.
  const NodeId succ_true = node.succ_true;
  const NodeId succ_false = node.succ_false;
  NodeId copy;
  switch (node.kind) {
    case NodeKind::kAssign:
      copy = g.add_assign(node.lhs.clone(), node.rhs->clone());
      break;
    case NodeKind::kFork:
      copy = g.add_fork(node.pred->clone());
      break;
    case NodeKind::kJoin:
      copy = g.add_join(node.name.empty() ? "" : node.name + "'");
      break;
    default:
      CTDF_UNREACHABLE("only statements can be split");
  }
  if (succ_true.valid()) g.set_succ(copy, true, succ_true);
  if (succ_false.valid()) g.set_succ(copy, false, succ_false);
  return copy;
}

/// One splitting step inside region `r`; true iff the graph was changed.
bool split_pass(Graph& g, std::uint32_t r, int& splits, SplitScratch& sc) {
  const std::size_t first_scc = sc.scc_ends.size();
  const std::size_t base = sc.scc_nodes.size();
  sccs_in_region(g, r, sc);
  const std::size_t last_scc = sc.scc_ends.size();
  for (std::size_t k = first_scc; k < last_scc; ++k) {
    const std::size_t begin = k == first_scc ? base : sc.scc_ends[k - 1];
    const std::span<const NodeId> scc_nodes{
        sc.scc_nodes.data() + begin, sc.scc_nodes.data() + sc.scc_ends[k]};
    const bool nontrivial =
        scc_nodes.size() > 1 || has_self_edge(g, scc_nodes.front());
    if (!nontrivial) continue;

    const std::uint32_t scc = sc.make_region(scc_nodes);

    // Entry nodes: members with a predecessor outside the SCC.
    sc.entries.clear();
    for (NodeId n : scc_nodes) {
      int ext = 0;
      for (NodeId p : g.preds(n))
        if (!sc.in(scc, p)) ++ext;
      if (ext > 0) sc.entries.emplace_back(n, ext);
    }
    CTDF_ASSERT_MSG(!sc.entries.empty(), "SCC unreachable from outside");

    if (sc.entries.size() > 1) {
      // Irreducible: keep the most-entered node as header (the first
      // one on ties), split the others (code copying).
      const NodeId header =
          std::max_element(sc.entries.begin(), sc.entries.end(),
                           [](const auto& a, const auto& b) {
                             return a.second < b.second;
                           })
              ->first;
      for (const auto& [e, ext] : sc.entries) {
        if (e == header) continue;
        const NodeId copy = clone_node(g, e);
        ++splits;
        sc.preds.assign(g.preds(e).begin(), g.preds(e).end());  // we mutate
        for (NodeId p : sc.preds) {
          if (sc.in(scc, p)) continue;
          for (const bool dir : {true, false}) {
            if (g.has_succ(p, dir) &&
                (dir ? g.node(p).succ_true : g.node(p).succ_false) == e)
              g.redirect_succ(p, dir, copy);
          }
        }
      }
      return true;
    }

    // Single entry: recurse into the region below the header to find
    // nested irreducibility.
    const NodeId header = sc.entries.front().first;
    sc.region[header.index()] = SplitScratch::kNoRegion;
    if (scc_nodes.size() > 1 && split_pass(g, scc, splits, sc)) return true;
  }
  sc.scc_nodes.resize(base);
  sc.scc_ends.resize(first_scc);
  return false;
}

int make_reducible(Graph& g, support::DiagnosticEngine& diags) {
  int splits = 0;
  const int budget = 1000 + static_cast<int>(g.size()) * 10;
  SplitScratch scratch;
  for (;;) {
    const std::uint32_t all = scratch.reset(g.size());
    if (!split_pass(g, all, splits, scratch)) break;
    if (splits > budget) {
      diags.error({}, "node splitting budget exceeded; control flow too "
                      "irreducible to decompose into intervals");
      break;
    }
  }
  return splits;
}

}  // namespace

bool LoopInfo::in_loop(NodeId n, LoopId l) const {
  const std::vector<NodeId>& ms = loop(l).members;
  return std::binary_search(ms.begin(), ms.end(), n);
}

LoopId LoopInfo::loop_of_control_node(const Graph& g, NodeId n) const {
  const Node& node = g.node(n);
  if (node.kind == NodeKind::kLoopEntry || node.kind == NodeKind::kLoopExit)
    return node.loop;
  return LoopId::invalid();
}

bool LoopInfo::is_back_edge(NodeId from, NodeId to) const {
  for (const Loop& l : loops_)
    if (l.entry == to) return in_loop(from, l.id);
  return false;
}

std::vector<lang::VarId> LoopInfo::used_vars(const Graph& g, LoopId l) const {
  std::vector<lang::VarId> out;
  for (NodeId n : loop(l).members) {
    const NodeKind k = g.kind(n);
    if (k != NodeKind::kAssign && k != NodeKind::kFork) continue;
    for (lang::VarId v : g.refs(n))
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

LoopInfo transform_loops(Graph& g, support::DiagnosticEngine& diags) {
  LoopInfo info;
  info.nodes_split_ = make_reducible(g, diags);
  if (diags.has_errors()) return info;

  // Natural loops of the (now reducible) graph, merged per header.
  const DomTree dom{g, DomDirection::kForward};
  std::vector<NodeId> headers;
  support::IndexMap<NodeId, NodeSet> members_of(g.size());
  for (NodeId u : g.all_nodes()) {
    for (NodeId v : g.succs(u)) {
      if (!dom.dominates(v, u)) continue;  // not a back edge
      NodeSet& members = members_of[v];
      if (members.empty()) headers.push_back(v);
      // Backward closure from u, stopping at v.
      std::vector<NodeId> stack;
      const auto add = [&](NodeId n) {
        if (members.insert(n.value()).second && n != v) stack.push_back(n);
      };
      add(v);
      add(u);
      while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        for (NodeId p : g.preds(n)) add(p);
      }
    }
  }

  // Loop records; parents by smallest strictly-containing loop.
  std::vector<NodeSet> member_sets;
  for (NodeId h : headers) {
    Loop l;
    l.id = LoopId{info.loops_.size()};
    l.header = h;
    info.loops_.push_back(std::move(l));
    member_sets.push_back(members_of[h]);
  }
  const auto set_size = [&](LoopId l) { return member_sets[l.index()].size(); };
  for (Loop& l : info.loops_) {
    LoopId best;
    for (const Loop& m : info.loops_) {
      if (m.id == l.id) continue;
      if (!member_sets[m.id.index()].contains(l.header.value())) continue;
      if (!best.valid() || set_size(m.id) < set_size(best)) best = m.id;
    }
    l.parent = best;
  }
  for (Loop& l : info.loops_) {
    int d = 0;
    for (LoopId p = l.parent; p.valid(); p = info.loops_[p.index()].parent)
      ++d;
    l.depth = d;
  }

  // Insert loop exits and entries, innermost loops first.
  std::vector<LoopId> order;
  for (const Loop& l : info.loops_) order.push_back(l.id);
  std::sort(order.begin(), order.end(), [&](LoopId a, LoopId b) {
    return info.loops_[a.index()].depth > info.loops_[b.index()].depth;
  });

  const auto ancestors_of = [&](LoopId l) {
    std::vector<LoopId> out;
    for (LoopId p = info.loops_[l.index()].parent; p.valid();
         p = info.loops_[p.index()].parent)
      out.push_back(p);
    return out;
  };

  for (LoopId lid : order) {
    Loop& l = info.loops_[lid.index()];
    NodeSet& members = member_sets[lid.index()];
    const auto ancestors = ancestors_of(lid);

    // Exits first (so the freshly inserted entry node is not mistaken
    // for an exit target): every edge member --dir--> non-member.
    const std::vector<NodeId::underlying_type> snapshot(members.begin(),
                                                        members.end());
    for (const auto raw : snapshot) {
      const NodeId a{raw};
      for (const bool dir : {true, false}) {
        if (!g.has_succ(a, dir)) continue;
        const NodeId b = dir ? g.node(a).succ_true : g.node(a).succ_false;
        if (contains(members, b)) continue;
        const NodeId lx = g.add_loop_exit(lid);
        g.redirect_succ(a, dir, lx);
        g.set_succ(lx, true, b);
        l.exits.push_back(lx);
        // Exit nodes belong to every enclosing loop (so outer exits
        // chain after inner ones) but not to this loop.
        for (LoopId anc : ancestors)
          member_sets[anc.index()].insert(lx.value());
      }
    }

    // Entry: reroute every edge into the header — external entries and
    // back edges alike — through a single loop-entry node.
    const NodeId le = g.add_loop_entry(lid);
    const std::vector<NodeId> preds = g.preds(l.header);  // copy; we mutate
    for (NodeId p : preds) {
      for (const bool dir : {true, false}) {
        if (g.has_succ(p, dir) &&
            (dir ? g.node(p).succ_true : g.node(p).succ_false) == l.header)
          g.redirect_succ(p, dir, le);
      }
    }
    g.set_succ(le, true, l.header);
    l.entry = le;
    members.insert(le.value());
    for (LoopId anc : ancestors) member_sets[anc.index()].insert(le.value());
  }

  // Freeze membership into sorted lists (in_loop binary-searches them).
  for (Loop& l : info.loops_) {
    const NodeSet& members = member_sets[l.id.index()];
    l.members.reserve(members.size());
    for (const auto raw : members) l.members.emplace_back(raw);
    std::sort(l.members.begin(), l.members.end());
  }

  for (auto& problem : g.validate())
    diags.error({}, "loop transform: " + problem);
  return info;
}

}  // namespace ctdf::cfg
