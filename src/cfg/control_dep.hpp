// Control dependence (paper Definition 4) and iterated control
// dependence CD⁺ (Definition 5).
//
// Computed from the postdominator tree with the standard edge-walk: for
// each CFG edge F --d--> S, every node on the postdominator-tree path
// from S up to (but excluding) ipostdom(F) is control dependent on F
// with out-direction d.
//
// Theorem 1 of the paper states that F ∈ CD⁺(N) iff N lies *between* F
// and ipostdom(F) (Definition 1); the test suite cross-checks this
// computation against a brute-force path-enumeration oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/dominance.hpp"
#include "cfg/graph.hpp"
#include "support/bitset.hpp"

namespace ctdf::cfg {

struct ControlDep {
  NodeId fork;
  bool direction;
};

class ControlDeps {
 public:
  /// `pdom` must be the postdominator tree of `g`.
  ControlDeps(const Graph& g, const DomTree& pdom);

  /// CD(n): the forks n is control dependent on, with the out-direction
  /// of the dependence, by ascending fork (true before false).
  [[nodiscard]] std::span<const ControlDep> deps(NodeId n) const {
    return {deps_.data() + dep_begin_[n.index()],
            deps_.data() + dep_begin_[n.index() + 1]};
  }

  /// Buffers for repeated CD⁺ queries, sized to the graph once.
  struct Scratch {
    support::Bitset seen;
    support::Bitset result;
    std::vector<NodeId> worklist;
  };

  /// CD⁺ of a node set into `s.result`, reusing s's buffers.
  void iterate(std::span<const NodeId> ns, Scratch& s) const;

  /// Iterated control dependence CD⁺(n) as a node bitset.
  [[nodiscard]] support::Bitset iterated(NodeId n) const;

  /// CD⁺ of a node set (the union of per-node CD⁺).
  [[nodiscard]] support::Bitset iterated(const std::vector<NodeId>& ns) const;

 private:
  std::size_t num_nodes_;
  std::vector<std::uint32_t> dep_begin_;  ///< per node, plus an end
  std::vector<ControlDep> deps_;
};

}  // namespace ctdf::cfg
