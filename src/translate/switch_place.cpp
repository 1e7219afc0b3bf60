#include "translate/switch_place.hpp"

#include <algorithm>

namespace ctdf::translate {

SwitchPlacement::SwitchPlacement(
    const cfg::Graph& g, const cfg::ControlDeps& cd,
    const support::IndexMap<cfg::NodeId, std::vector<Resource>>& uses,
    std::size_t num_resources, bool optimize)
    : placed_(g.size() * num_resources), num_resources_(num_resources) {
  const auto is_real_fork = [&](cfg::NodeId n) {
    return g.kind(n) == cfg::NodeKind::kFork;
  };
  const auto place = [&](cfg::NodeId f, Resource r) {
    const std::size_t bit = f.index() * num_resources + r;
    if (placed_.test(bit)) return;
    placed_.set(bit);
    ++total_;
  };

  if (!optimize) {
    for (cfg::NodeId n : g.all_nodes()) {
      if (!is_real_fork(n)) continue;
      for (Resource r = 0; r < num_resources; ++r) place(n, r);
    }
    return;
  }

  // Figure 10, run for all resources at once: seed the worklist with
  // every node that references r and close over control dependence.
  std::vector<cfg::NodeId> refs;
  refs.reserve(g.size());
  cfg::ControlDeps::Scratch closure;
  for (Resource r = 0; r < num_resources; ++r) {
    refs.clear();
    for (cfg::NodeId n : g.all_nodes()) {
      const auto& u = uses[n];
      if (std::find(u.begin(), u.end(), r) != u.end()) refs.push_back(n);
    }
    cd.iterate(refs, closure);
    closure.result.for_each([&](std::size_t i) {
      const cfg::NodeId f{i};
      if (is_real_fork(f)) place(f, r);  // start needs no run-time switch
    });
  }
}

}  // namespace ctdf::translate
