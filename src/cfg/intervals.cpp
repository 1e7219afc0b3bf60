#include "cfg/intervals.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "support/assert.hpp"
#include "support/graph_algo.hpp"

namespace ctdf::cfg {

namespace {

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
      copy = g.add_assign(*node.lhs, *node.rhs);
      break;
    case NodeKind::kFork:
      copy = g.add_fork(*node.pred);
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

void LoopInfo::group_nodes() {
  nodes_begin_.assign(loops_.size() + 1, 0);
  for (const LoopId l : innermost_)
    if (l.valid()) ++nodes_begin_[pre_[l.index()] + 1];
  for (std::size_t i = 1; i < nodes_begin_.size(); ++i)
    nodes_begin_[i] += nodes_begin_[i - 1];
  nodes_.resize(nodes_begin_.back());
  std::vector<std::uint32_t> fill(nodes_begin_.begin(), nodes_begin_.end() - 1);
  for (std::size_t n = 0; n < innermost_.size(); ++n) {
    const LoopId l = innermost_.raw()[n];
    if (l.valid()) nodes_[fill[pre_[l.index()]]++] = NodeId{n};
  }
}

std::vector<std::vector<lang::VarId>> LoopInfo::used_vars(
    const Graph& g) const {
  // Each node counts in its innermost loop; nested loops come later in
  // preorder, so walking it backward hands each loop's set to its
  // parent before the parent is sorted.
  std::vector<std::vector<lang::VarId>> out(loops_.size());
  std::vector<lang::VarId> refs;
  for (auto it = preorder_.rbegin(); it != preorder_.rend(); ++it) {
    std::vector<lang::VarId>& vars = out[it->index()];
    for (NodeId n : body(*it)) {
      const NodeKind k = g.kind(n);
      if (k != NodeKind::kAssign && k != NodeKind::kFork) continue;
      g.refs(n, refs);
      vars.insert(vars.end(), refs.begin(), refs.end());
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    const LoopId parent = loops_[it->index()].parent;
    if (parent.valid())
      out[parent.index()].insert(out[parent.index()].end(), vars.begin(),
                                 vars.end());
  }
  return out;
}

LoopInfo transform_loops(Graph& g, support::DiagnosticEngine& diags) {
  LoopInfo info;
  const ForwardView view{g};
  support::GraphAlgo<NodeId> algo;
  support::build_order(view, algo);
  support::build_dominators(view, algo);
  if (!support::is_reducible(view, algo)) {
    info.nodes_split_ = make_reducible(g, diags);
    if (diags.has_errors()) return info;
    support::build_order(view, algo);
    support::build_dominators(view, algo);
  }
  // Natural loops of the (now reducible) graph, merged per header.
  support::build_loops(view, algo);

  // Loop ids in the order each header's first back edge is met,
  // scanning nodes ascending and out-edges true first.
  const std::size_t original = g.size();
  support::IndexMap<NodeId, LoopId> id_of(original);
  for (NodeId u : g.all_nodes()) {
    for (NodeId h : g.succs(u)) {
      if (!algo[h].is_loop_header || id_of[h].valid() ||
          !algo.dominates(h, u))
        continue;
      id_of[h] = LoopId{info.loops_.size()};
      Loop l;
      l.id = id_of[h];
      l.header = h;
      info.loops_.push_back(std::move(l));
    }
  }
  const std::size_t num_loops = info.loops_.size();
  info.pre_.resize(num_loops);
  info.last_.resize(num_loops);
  for (Loop& l : info.loops_) {
    const support::AlgoNode<NodeId>& h = algo[l.header];
    l.parent = h.loop_parent.valid() ? id_of[h.loop_parent] : LoopId{};
    l.depth = static_cast<int>(h.loop_depth) - 1;
    info.pre_[l.id.index()] = h.loop_pre;
    info.last_[l.id.index()] = h.loop_last;
  }
  for (NodeId h : algo.loop_headers) info.preorder_.push_back(id_of[h]);
  info.innermost_.resize(original);
  for (NodeId n : g.all_nodes()) {
    const NodeId h = algo[n].iloop_header;
    if (h.valid()) info.innermost_[n] = id_of[h];
  }

  info.group_nodes();

  // A loop's exit edges leave from its own body or from the exit nodes
  // of the loops nested directly in it: an edge leaving from deeper
  // already passes through those. The children of each loop, by
  // ascending id, in one table.
  std::vector<std::uint32_t> child_begin(num_loops + 1, 0);
  for (const Loop& l : info.loops_)
    if (l.parent.valid()) ++child_begin[l.parent.index() + 1];
  for (std::size_t i = 0; i < num_loops; ++i)
    child_begin[i + 1] += child_begin[i];
  std::vector<LoopId> children(child_begin.back());
  {
    std::vector<std::uint32_t> fill(child_begin.begin(), child_begin.end() - 1);
    for (const Loop& l : info.loops_)
      if (l.parent.valid()) children[fill[l.parent.index()]++] = l.id;
  }

  // Insert loop exits and entries, innermost loops first: by depth
  // descending, then by id.
  std::vector<LoopId> order(num_loops);
  for (std::size_t i = 0; i < num_loops; ++i) order[i] = LoopId{i};
  std::sort(order.begin(), order.end(), [&](LoopId a, LoopId b) {
    const int da = info.loops_[a.index()].depth;
    const int db = info.loops_[b.index()].depth;
    return da != db ? da > db : a < b;
  });

  std::vector<NodeId> preds;
  for (LoopId lid : order) {
    Loop& l = info.loops_[lid.index()];

    // Exits first (so the freshly inserted entry node is not mistaken
    // for an exit target): every edge from inside l to outside it, by
    // ascending source and true before false. Exit nodes belong to every
    // enclosing loop (so outer exits chain after inner ones) but not to
    // this one.
    const auto exit_edge = [&](NodeId a, bool dir) {
      if (!g.has_succ(a, dir)) return;
      const NodeId b = dir ? g.node(a).succ_true : g.node(a).succ_false;
      if (info.in_loop(b, lid)) return;
      const NodeId lx = g.add_loop_exit(lid);
      g.redirect_succ(a, dir, lx);
      g.set_succ(lx, true, b);
      l.exits.push_back(lx);
      info.innermost_.ensure(lx, l.parent);
    };
    for (NodeId a : info.body(lid)) {  // original nodes, grouped above
      exit_edge(a, true);
      exit_edge(a, false);
    }
    for (std::uint32_t i = child_begin[lid.index()];
         i < child_begin[lid.index() + 1]; ++i)
      for (NodeId x : info.loops_[children[i].index()].exits)
        exit_edge(x, true);

    // Entry: reroute every edge into the header — external entries and
    // back edges alike — through a single loop-entry node.
    const NodeId le = g.add_loop_entry(lid);
    preds.assign(g.preds(l.header).begin(), g.preds(l.header).end());
    for (NodeId p : preds) {
      for (const bool dir : {true, false}) {
        if (g.has_succ(p, dir) &&
            (dir ? g.node(p).succ_true : g.node(p).succ_false) == l.header)
          g.redirect_succ(p, dir, le);
      }
    }
    g.set_succ(le, true, l.header);
    l.entry = le;
    info.innermost_.ensure(le, lid);
  }

  info.group_nodes();  // again, with the inserted nodes

  for (auto& problem : g.validate())
    diags.error({}, "loop transform: " + problem);
  return info;
}

}  // namespace ctdf::cfg
