// Switch placement (Fig. 10) against the paper's characterization
// (Definitions 1-3 via Theorem 1's "between" formulation).
#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dominance.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "support/oracles.hpp"
#include "translate/switch_place.hpp"

namespace ctdf::translate {
namespace {

struct Placed {
  lang::Program prog;
  cfg::Graph g;
  cfg::DomTree pdom;
  cfg::ControlDeps cd;
  Cover cover;
  support::IndexMap<cfg::NodeId, std::vector<Resource>> uses;

  explicit Placed(std::string_view src)
      : prog(lang::parse_or_throw(src)),
        g(cfg::build_cfg_or_throw(prog)),
        pdom(g, cfg::DomDirection::kPostdom),
        cd(g, pdom),
        cover(Cover::make(prog.symbols, CoverStrategy::kSingleton)) {
    uses.resize(g.size());
    std::vector<lang::VarId> refs;
    for (cfg::NodeId n : g.all_nodes()) {
      g.refs(n, refs);
      cover.access_set_union(refs, uses[n]);
    }
  }

  SwitchPlacement place(bool optimize) const {
    return SwitchPlacement{g, cd, uses, cover.size(), optimize};
  }

  Resource res(const char* name) const {
    return cover.access_set(*prog.symbols.lookup(name)).front();
  }

  cfg::NodeId only_fork() const {
    cfg::NodeId f;
    for (cfg::NodeId n : g.all_nodes())
      if (g.kind(n) == cfg::NodeKind::kFork) f = n;
    return f;
  }
};

TEST(SwitchPlacement, Fig9SwitchForXIsRedundant) {
  // Fig. 9: x is not referenced inside the conditional, so the fork
  // needs no switch for access_x under the optimized placement — that
  // is exactly the redundant switch the paper eliminates.
  Placed p(lang::corpus::fig9_source());
  const auto placement = p.place(/*optimize=*/true);
  const cfg::NodeId fork = p.only_fork();
  EXPECT_FALSE(placement.needs_switch(fork, p.res("x")));
  EXPECT_TRUE(placement.needs_switch(fork, p.res("y")));
  // w is only read by the predicate itself (before the branch) — no
  // node strictly between the fork and its postdominator references it.
  EXPECT_FALSE(placement.needs_switch(fork, p.res("w")));
}

TEST(SwitchPlacement, UnoptimizedSwitchesEverything) {
  Placed p(lang::corpus::fig9_source());
  const auto placement = p.place(/*optimize=*/false);
  const cfg::NodeId fork = p.only_fork();
  for (Resource r = 0; r < p.cover.size(); ++r)
    EXPECT_TRUE(placement.needs_switch(fork, r));
  EXPECT_EQ(placement.total(), p.cover.size());
}

TEST(SwitchPlacement, OptimizedIsSubsetOfUnoptimized) {
  for (const auto& np : lang::corpus::all()) {
    Placed p(np.source);
    const auto opt = p.place(true);
    const auto base = p.place(false);
    EXPECT_LE(opt.total(), base.total()) << np.name;
    for (cfg::NodeId n : p.g.all_nodes())
      for (Resource r = 0; r < p.cover.size(); ++r)
        if (opt.needs_switch(n, r)) {
          EXPECT_TRUE(base.needs_switch(n, r)) << np.name;
        }
  }
}

TEST(SwitchPlacement, NestedBypassPlacesNoSwitchForX) {
  Placed p(lang::corpus::nested_bypass_source(5));
  const auto placement = p.place(true);
  const Resource x = p.res("x");
  for (cfg::NodeId n : p.g.all_nodes()) {
    if (p.g.kind(n) != cfg::NodeKind::kFork) continue;
    EXPECT_FALSE(placement.needs_switch(n, x))
        << "fork " << n.value() << " switches x needlessly";
  }
}

TEST(SwitchPlacement, StartNeverGetsRuntimeSwitches) {
  Placed p(lang::corpus::fig9_source());
  for (const bool optimize : {false, true}) {
    const auto placement = p.place(optimize);
    for (Resource r = 0; r < p.cover.size(); ++r)
      EXPECT_FALSE(placement.needs_switch(p.g.start(), r));
  }
}

// Definition 3 cross-check: optimized placement marks F for access_x
// iff some node referencing x lies between F and ipostdom(F)
// (Definition 1 checked by brute-force path search).
TEST(SwitchPlacement, MatchesBetweenCharacterization) {
  for (const auto& np : lang::corpus::all()) {
    Placed p(np.source);
    const auto placement = p.place(true);
    for (cfg::NodeId f : p.g.all_nodes()) {
      if (p.g.kind(f) != cfg::NodeKind::kFork) continue;
      const cfg::NodeId ip = p.pdom.idom(f);
      for (Resource r = 0; r < p.cover.size(); ++r) {
        bool expected = false;
        for (cfg::NodeId n : p.g.all_nodes()) {
          const auto& u = p.uses[n];
          if (std::find(u.begin(), u.end(), r) == u.end()) continue;
          if (testing::naive_between(p.g, f, ip, n)) {
            expected = true;
            break;
          }
        }
        EXPECT_EQ(placement.needs_switch(f, r), expected)
            << np.name << " fork " << f.value() << " resource " << r;
      }
    }
  }
}

}  // namespace
}  // namespace ctdf::translate
