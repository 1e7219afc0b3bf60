// Switch placement (paper Section 4.1, Figure 10).
//
// For each resource (cover element) we compute the set of forks that
// need a switch for its access token. By Theorem 1 / Corollary 1, a
// fork F needs a switch for access_r iff F ∈ CD⁺(N) for some node N
// that uses r; Figure 10's worklist computes exactly that closure from
// the control-dependence relation.
//
// In unoptimized mode (plain Schema 2/3) every fork needs a switch for
// every resource — tokens follow the path of sequential execution.
#pragma once

#include "cfg/control_dep.hpp"
#include "cfg/graph.hpp"
#include "support/bitset.hpp"
#include "support/index_map.hpp"
#include "translate/cover.hpp"

namespace ctdf::translate {

class SwitchPlacement {
 public:
  /// Empty placement (no forks, no switches); assign a computed one.
  SwitchPlacement() = default;

  /// `uses[n]` must list the resources node n uses (loop entry/exit
  /// refs included). When `optimize` is false every fork (every node
  /// with a false out-edge except start) needs every resource.
  SwitchPlacement(const cfg::Graph& g, const cfg::ControlDeps& cd,
                  const support::IndexMap<cfg::NodeId, std::vector<Resource>>& uses,
                  std::size_t num_resources, bool optimize);

  /// Does fork F need a switch for access_r? (False for start, which
  /// has no run-time predicate despite being a fork by convention.)
  [[nodiscard]] bool needs_switch(cfg::NodeId fork, Resource r) const {
    return placed_.test(fork.index() * num_resources_ + r);
  }

  /// Total switches that will be emitted.
  [[nodiscard]] std::size_t total() const { return total_; }

 private:
  /// One bit per (node, resource), node-major; set only for real forks.
  support::Bitset placed_;
  std::size_t num_resources_ = 0;
  std::size_t total_ = 0;
};

}  // namespace ctdf::translate
