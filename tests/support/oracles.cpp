#include "support/oracles.hpp"

#include <algorithm>

namespace ctdf::testing {

namespace {

/// Nodes reachable from `from` without passing through `blocked`
/// (the start node `from` itself is returned even if == blocked only
/// when trivially so; we never need that case).
std::vector<bool> reach_avoiding(const cfg::Graph& g, cfg::NodeId from,
                                 cfg::NodeId blocked) {
  std::vector<bool> seen(g.size(), false);
  if (from == blocked) return seen;
  std::vector<cfg::NodeId> stack{from};
  seen[from.index()] = true;
  while (!stack.empty()) {
    const cfg::NodeId n = stack.back();
    stack.pop_back();
    for (cfg::NodeId s : g.succs(n)) {
      if (s == blocked || seen[s.index()]) continue;
      seen[s.index()] = true;
      stack.push_back(s);
    }
  }
  return seen;
}

}  // namespace

bool naive_postdominates(const cfg::Graph& g, cfg::NodeId m, cfg::NodeId n) {
  if (m == n) return true;
  // m postdominates n iff every path n ⇒ end passes m, i.e. end is not
  // reachable from n when m is removed.
  const auto seen = reach_avoiding(g, n, m);
  return !seen[g.end().index()];
}

bool naive_between(const cfg::Graph& g, cfg::NodeId f, cfg::NodeId ipostdom_f,
                   cfg::NodeId n) {
  // Non-null path F ⇒ N avoiding P: search from F's successors.
  for (cfg::NodeId s : g.succs(f)) {
    if (s == ipostdom_f) continue;
    if (s == n) return true;
    const auto seen = reach_avoiding(g, s, ipostdom_f);
    if (seen[n.index()]) return true;
  }
  return false;
}

bool naive_control_dependent(const cfg::Graph& g, cfg::NodeId n,
                             cfg::NodeId f) {
  // Definition 4 condition 2: N must not strictly postdominate F.
  if (n != f && naive_postdominates(g, n, f)) return false;
  // Condition 1 (a non-null path F ⇒ N on which N postdominates every
  // node after F) holds iff N postdominates some successor of F — the
  // classic equivalent formulation.
  for (cfg::NodeId s : g.succs(f))
    if (naive_postdominates(g, n, s)) return true;
  return false;
}

std::vector<cfg::NodeId> naive_cd_plus(const cfg::Graph& g, cfg::NodeId n) {
  std::vector<bool> in_closure(g.size(), false);
  std::vector<bool> in_result(g.size(), false);
  std::vector<cfg::NodeId> work{n};
  in_closure[n.index()] = true;
  while (!work.empty()) {
    const cfg::NodeId cur = work.back();
    work.pop_back();
    for (cfg::NodeId f : g.all_nodes()) {
      if (g.succs(f).size() < 2) continue;
      if (!naive_control_dependent(g, cur, f)) continue;
      in_result[f.index()] = true;
      if (!in_closure[f.index()]) {
        in_closure[f.index()] = true;
        work.push_back(f);
      }
    }
  }
  std::vector<cfg::NodeId> out;
  for (cfg::NodeId f : g.all_nodes())
    if (in_result[f.index()]) out.push_back(f);
  return out;
}

FlowGraph flow_graph(const cfg::Graph& g) {
  FlowGraph f;
  f.root = g.start().index();
  f.succs.resize(g.size());
  for (cfg::NodeId n : g.all_nodes())
    for (cfg::NodeId s : g.succs(n)) f.succs[n.index()].push_back(s.index());
  return f;
}

FlowGraph flow_graph(const dfg::Graph& g) {
  FlowGraph f;
  f.root = g.start().index();
  f.succs.resize(g.num_nodes());
  for (const dfg::Arc& a : g.arcs())
    f.succs[a.src.index()].push_back(a.dst.index());
  return f;
}

namespace {

/// Nodes reachable from the root without entering `removed` (none when
/// the root itself is removed).
std::vector<bool> reach_without(const FlowGraph& g, std::size_t removed) {
  std::vector<bool> seen(g.succs.size(), false);
  if (g.root == removed) return seen;
  std::vector<std::size_t> stack{g.root};
  seen[g.root] = true;
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    for (std::size_t s : g.succs[n]) {
      if (s == removed || seen[s]) continue;
      seen[s] = true;
      stack.push_back(s);
    }
  }
  return seen;
}

}  // namespace

std::vector<bool> naive_dominated_by(const FlowGraph& g, std::size_t a) {
  std::vector<bool> out = reach_without(g, g.succs.size());  // reachable
  const std::vector<bool> avoiding = reach_without(g, a);
  for (std::size_t b = 0; b < out.size(); ++b)
    out[b] = out[b] && (a == b || !avoiding[b]);
  return out;
}

bool naive_dominates(const FlowGraph& g, std::size_t a, std::size_t b) {
  return naive_dominated_by(g, a)[b];
}

NaiveLoops naive_natural_loops(const FlowGraph& g) {
  const std::size_t n = g.succs.size();
  std::vector<std::vector<std::size_t>> preds(n);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t s : g.succs[u]) preds[s].push_back(u);

  const std::vector<bool> reachable = reach_without(g, n);
  std::vector<std::vector<bool>> loop_of(n);  // by header
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t h : g.succs[u]) {
      if (!naive_dominates(g, h, u)) continue;
      std::vector<bool>& members = loop_of[h];
      if (members.empty()) members.assign(n, false);
      members[h] = true;
      // Backward from u, never through h.
      std::vector<std::size_t> stack;
      if (!members[u]) {
        members[u] = true;
        stack.push_back(u);
      }
      while (!stack.empty()) {
        const std::size_t m = stack.back();
        stack.pop_back();
        for (std::size_t p : preds[m]) {
          if (members[p] || !reachable[p]) continue;
          members[p] = true;
          stack.push_back(p);
        }
      }
    }
  }
  NaiveLoops out;
  for (std::size_t h = 0; h < n; ++h) {
    if (loop_of[h].empty()) continue;
    out.headers.push_back(h);
    out.members.push_back(std::move(loop_of[h]));
  }
  return out;
}

}  // namespace ctdf::testing
