#include "translate/classify.hpp"

#include <algorithm>
#include <optional>

#include "translate/subscript.hpp"

namespace ctdf::translate {

bool ResourceClasses::split_at(const cfg::LoopInfo& loops, cfg::NodeId n,
                               Resource r) const {
  if (istructure[r]) return true;
  if (loops_store_parallelized == 0) return false;
  const cfg::LoopId l = loops.innermost(n);
  if (!l.valid()) return false;
  const auto& ms = marked[l.index()];
  return std::find(ms.begin(), ms.end(), r) != ms.end();
}

std::size_t ResourceClasses::eliminated_count() const {
  return static_cast<std::size_t>(
      std::count(eliminated.begin(), eliminated.end(), true));
}

std::size_t ResourceClasses::istructure_count() const {
  return static_cast<std::size_t>(
      std::count(istructure.begin(), istructure.end(), true));
}

ResourceClasses classify_resources(const lang::Program& prog,
                                   const TranslateOptions& options,
                                   const Cover& cover, const cfg::Graph& cfg,
                                   const cfg::LoopInfo& loops,
                                   const lang::StorageLayout& layout,
                                   support::DiagnosticEngine& diags) {
  using lang::VarId;
  const std::size_t num_res = cover.size();

  ResourceClasses rc;
  rc.eliminated.assign(num_res, false);
  rc.istructure.assign(num_res, false);
  if (options.eliminate_memory) {
    for (Resource r = 0; r < num_res; ++r)
      rc.eliminated[r] = cover.eliminable(r, prog.symbols);
  }

  const auto singleton_array_resource =
      [&](const std::string& name) -> std::optional<Resource> {
    const auto v = prog.symbols.lookup(name);
    if (!v || !prog.symbols.is_array(*v)) {
      diags.warning({}, "'" + name + "' is not a declared array; ignored");
      return std::nullopt;
    }
    if (prog.symbols.alias_class(*v).size() != 1 ||
        cover.access_set(*v).size() != 1) {
      diags.warning({}, "array '" + name +
                            "' is aliased or covered jointly; cannot "
                            "relax its access ordering");
      return std::nullopt;
    }
    const Resource r = cover.access_set(*v).front();
    if (cover.element(r).size() != 1) return std::nullopt;
    return r;
  };

  for (const auto& name : options.istructure_arrays) {
    if (const auto r = singleton_array_resource(name)) {
      rc.istructure[*r] = true;
      const VarId v = cover.singleton_var(*r);
      rc.istructure_regions.push_back(
          lang::CellRegion{static_cast<std::uint32_t>(layout.base(v)),
                           static_cast<std::uint32_t>(layout.extent(v))});
    }
  }

  // Fig. 14: per (loop, array) qualification. Requires the user to
  // nominate the array AND a conservative subscript check: inside the
  // loop the array is only stored to, each store's subscript is
  // i or i±c for a simple induction variable i of that loop.
  rc.marked.assign(loops.loops().size(), {});
  for (const auto& name : options.parallel_store_arrays) {
    const auto r = singleton_array_resource(name);
    if (!r || rc.istructure[*r]) continue;
    const VarId a = cover.singleton_var(*r);
    for (const cfg::Loop& loop : loops.loops()) {
      if (stores_parallelizable(cfg, loops.nodes(loop.id), a,
                                prog.symbols)) {
        rc.marked[loop.id.index()].push_back(*r);
        ++rc.loops_store_parallelized;
      }
    }
  }
  // A loop inherits the marks of the loops enclosing it (parents come
  // first in preorder).
  for (const cfg::LoopId l : loops.preorder()) {
    const cfg::LoopId parent = loops.loop(l).parent;
    if (!parent.valid()) continue;
    for (const Resource r : rc.marked[parent.index()]) {
      auto& ms = rc.marked[l.index()];
      if (std::find(ms.begin(), ms.end(), r) == ms.end()) ms.push_back(r);
    }
  }
  return rc;
}

}  // namespace ctdf::translate
