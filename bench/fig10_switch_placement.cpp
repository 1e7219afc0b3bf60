// F10 — Fig. 10: the switch-placement algorithm (iterated control
// dependence), measured for (a) placement quality on random CFGs and
// (b) wall-clock scaling of the analysis itself.
#include <chrono>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dominance.hpp"
#include "common.hpp"
#include "lang/generator.hpp"
#include "translate/switch_place.hpp"

using namespace ctdf;
using namespace ctdf::bench;

namespace {

struct PlacementStats {
  std::size_t cfg_nodes = 0;
  std::size_t naive = 0;
  std::size_t optimized = 0;
  double micros = 0;
};

PlacementStats place_for(std::uint64_t seed, int stmts) {
  lang::GeneratorOptions gopt;
  gopt.allow_unstructured = true;
  gopt.num_scalars = 6;
  gopt.max_toplevel_stmts = stmts;
  const auto prog = lang::generate_program(gopt, seed);
  const auto g = cfg::build_cfg_or_throw(prog);
  const cfg::DomTree pdom(g, cfg::DomDirection::kPostdom);
  const cfg::ControlDeps cd(g, pdom);
  const auto cover =
      translate::Cover::make(prog.symbols, translate::CoverStrategy::kSingleton);
  support::IndexMap<cfg::NodeId, std::vector<translate::Resource>> uses(
      g.size());
  std::vector<lang::VarId> refs;
  for (cfg::NodeId n : g.all_nodes()) {
    g.refs(n, refs);
    cover.access_set_union(refs, uses[n]);
  }

  PlacementStats out;
  out.cfg_nodes = g.size();
  const translate::SwitchPlacement naive(g, cd, uses, cover.size(), false);
  const auto t0 = std::chrono::steady_clock::now();
  const translate::SwitchPlacement opt(g, cd, uses, cover.size(), true);
  const auto t1 = std::chrono::steady_clock::now();
  out.naive = naive.total();
  out.optimized = opt.total();
  out.micros =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  return out;
}

}  // namespace

int main() {
  header("fig10_switch_placement — CD+-based placement (Fig. 10 / Thm. 1)",
         "switch needed at F for access_x iff F is in CD+(N) for some N "
         "referencing x;\ncomputable efficiently from the postdominator tree");

  std::printf("%10s %10s %14s %16s %14s %10s\n", "stmts", "CFG-nodes",
              "naive-switches", "placed-switches", "eliminated", "algo-us");
  for (const int stmts : {8, 16, 32, 64, 128, 256}) {
    // Average over a few seeds for stability.
    PlacementStats acc;
    const int kSeeds = 5;
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      const auto p = place_for(s * 97 + 13, stmts);
      acc.cfg_nodes += p.cfg_nodes;
      acc.naive += p.naive;
      acc.optimized += p.optimized;
      acc.micros += p.micros;
    }
    std::printf("%10d %10zu %14zu %16zu %13.1f%% %10.1f\n", stmts,
                acc.cfg_nodes / kSeeds, acc.naive / kSeeds,
                acc.optimized / kSeeds,
                100.0 * (1.0 - static_cast<double>(acc.optimized) /
                                   static_cast<double>(acc.naive)),
                acc.micros / kSeeds);
  }

  footer("placed switches are a strict subset of the naive everything-"
         "everywhere placement\n(typically well under half), and analysis "
         "time scales near-linearly with CFG size.");
  return 0;
}
