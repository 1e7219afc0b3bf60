#include "translate/source_vectors.hpp"

#include <algorithm>
#include <optional>

#include "support/assert.hpp"

namespace ctdf::translate {

SourceVectors compute_source_vectors(const cfg::Graph& cfg,
                                     const cfg::LoopInfo& loops,
                                     const Cover& cover,
                                     const cfg::ControlDeps& cd,
                                     std::size_t num_resources,
                                     bool optimize_switches) {
  using cfg::NodeId;

  SourceVectors sv;
  sv.uses.resize(cfg.size());
  std::vector<lang::VarId> refs;
  for (NodeId n : cfg.all_nodes()) {
    const cfg::NodeKind k = cfg.kind(n);
    if (k != cfg::NodeKind::kAssign && k != cfg::NodeKind::kFork) continue;
    cfg.refs(n, refs);
    cover.access_set_union(refs, sv.uses[n]);
  }

  // Per-loop resource sets.
  std::vector<std::vector<Resource>> loop_res(loops.loops().size());
  const auto all_resources = [&] {
    std::vector<Resource> rs(num_resources);
    for (Resource r = 0; r < num_resources; ++r) rs[r] = r;
    return rs;
  };
  if (optimize_switches) {
    const std::vector<std::vector<lang::VarId>> used = loops.used_vars(cfg);
    for (std::size_t l = 0; l < used.size(); ++l)
      cover.access_set_union(used[l], loop_res[l]);
  } else {
    for (auto& res : loop_res) res = all_resources();
  }

  // Resources some fork inside each loop needs a switch for, one row of
  // num_resources flags per loop: a fork counts in its innermost loop,
  // and each loop hands its row to its parent.
  std::vector<char> switched(loops.loops().size() * num_resources);

  std::optional<SwitchPlacement> placement;
  for (int iteration = 0;; ++iteration) {
    CTDF_ASSERT_MSG(iteration <= static_cast<int>(num_resources) + 2,
                    "loop-refs fixpoint failed to converge");
    for (const cfg::Loop& loop : loops.loops()) {
      sv.uses[loop.entry] = loop_res[loop.id.index()];
      for (NodeId x : loop.exits) sv.uses[x] = loop_res[loop.id.index()];
    }
    placement.emplace(cfg, cd, sv.uses, num_resources, optimize_switches);
    ++sv.fixpoint_rounds;
    if (!optimize_switches) break;

    bool changed = false;
    std::fill(switched.begin(), switched.end(), 0);
    for (auto it = loops.preorder().rbegin(); it != loops.preorder().rend();
         ++it) {
      const cfg::Loop& loop = loops.loop(*it);
      char* row = switched.data() + loop.id.index() * num_resources;
      for (NodeId n : loops.body(loop.id)) {
        if (cfg.kind(n) != cfg::NodeKind::kFork) continue;
        for (Resource r = 0; r < num_resources; ++r)
          if (placement->needs_switch(n, r)) row[r] = 1;
      }
      auto& res = loop_res[loop.id.index()];
      const std::size_t had = res.size();
      for (Resource r = 0; r < num_resources; ++r) {
        if (!row[r]) continue;
        if (loop.parent.valid())
          switched[loop.parent.index() * num_resources + r] = 1;
        if (!std::binary_search(res.begin(), res.begin() + had, r))
          res.push_back(r);
      }
      if (res.size() != had) {
        std::sort(res.begin(), res.end());
        changed = true;
      }
    }
    if (!changed) break;
  }
  sv.placement = std::move(*placement);
  return sv;
}

}  // namespace ctdf::translate
