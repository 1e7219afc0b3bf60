// Covers of an alias structure (paper Section 5, Definition 7).
//
// An access token denotes a *cover element* — a subset of the variable
// set V. A memory operation on x must collect every token access_c with
// c ∩ [x] ≠ ∅ (the access set C[x]). The choice of cover trades
// parallelism against synchronization:
//
//  * kSingleton — one element {x} per variable: maximum parallelism,
//    but an operation on x collects |[x]| tokens (more synchronization
//    under heavy aliasing). With no aliasing this degenerates to the
//    paper's Schema 2.
//  * kAliasClass — one element [x] per distinct alias class: operations
//    collect fewer tokens, but unaliased variables that share a class
//    member serialize.
//  * kComponent — one element per connected component of the alias
//    graph. Every access set has exactly one element (no collection
//    synch trees at all — the cover that minimizes synchronization),
//    while variables in different components still run in parallel.
//  * kUnified — the single element V: exactly one token, minimal
//    synchronization, fully sequential memory access. Combined with
//    within-statement parallel reads this is the paper's Schema 1.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lang/symbols.hpp"

namespace ctdf::translate {

enum class CoverStrategy : std::uint8_t {
  kSingleton,
  kAliasClass,
  kComponent,
  kUnified,
};

[[nodiscard]] const char* to_string(CoverStrategy s);

/// Resources are cover-element indices.
using Resource = std::size_t;

class Cover {
 public:
  static Cover make(const lang::SymbolTable& syms, CoverStrategy strategy);

  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  /// The variables of one cover element (sorted).
  [[nodiscard]] const std::vector<lang::VarId>& element(Resource r) const {
    return elements_[r];
  }

  /// The access set C[x]: resources whose element intersects [x]
  /// (sorted).
  [[nodiscard]] const std::vector<Resource>& access_set(lang::VarId v) const {
    return access_sets_[v];
  }

  /// Replaces `out` with the union of the access sets of `vars`
  /// (sorted, deduped). `out` is the caller's, so a stage can reuse
  /// one buffer or fill its per-node result in place.
  void access_set_union(std::span<const lang::VarId> vars,
                        std::vector<Resource>& out) const;

  /// True iff r is a single unaliased scalar — the precondition for
  /// eliminating its memory operations entirely (paper Section 6.1).
  [[nodiscard]] bool eliminable(Resource r,
                                const lang::SymbolTable& syms) const;

  /// The variable of a singleton element (asserts |element| == 1).
  [[nodiscard]] lang::VarId singleton_var(Resource r) const;

  /// Debug name, e.g. "{x,z}".
  [[nodiscard]] std::string name(Resource r,
                                 const lang::SymbolTable& syms) const;

 private:
  std::vector<std::vector<lang::VarId>> elements_;
  support::IndexMap<lang::VarId, std::vector<Resource>> access_sets_;
};

}  // namespace ctdf::translate
