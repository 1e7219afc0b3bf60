// Symbol table: variables, arrays, alias structure, storage bindings.
//
// The paper (Section 5) distinguishes the compile-time *may-alias*
// relation (Definition 6: reflexive, symmetric, NOT transitive) from the
// run-time fact that two names denote the same storage location (as
// created by FORTRAN reference-parameter passing). We model both:
//
//  * `alias x y`  — declares x ~ y. The translator must assume x and y
//                   may share a location.
//  * `bind x y`   — declares that x and y actually DO share a location
//                   at run time. Binding is an equivalence relation
//                   (union-find); every bind pair is implicitly added to
//                   the alias relation so that may-alias always
//                   over-approximates must-alias.
//
// The interpreter and the machine memory layout honor bindings; the
// translation schemas only ever see the alias relation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/ids.hpp"
#include "support/index_map.hpp"

namespace ctdf::lang {

struct VarTag;
using VarId = support::Id<VarTag>;

enum class VarKind : std::uint8_t { kScalar, kArray };

struct VarInfo {
  std::string name;
  VarKind kind = VarKind::kScalar;
  std::int64_t array_size = 0;  ///< valid iff kind == kArray
};

class SymbolTable {
 public:
  /// Declares a new symbol; returns nullopt if the name already exists.
  std::optional<VarId> declare_scalar(std::string_view name);
  std::optional<VarId> declare_array(std::string_view name,
                                     std::int64_t size);

  [[nodiscard]] std::optional<VarId> lookup(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return vars_.size(); }
  [[nodiscard]] const VarInfo& info(VarId v) const { return vars_[v]; }
  [[nodiscard]] const std::string& name(VarId v) const {
    return vars_[v].name;
  }
  [[nodiscard]] bool is_array(VarId v) const {
    return vars_[v].kind == VarKind::kArray;
  }

  /// Declare x ~ y (may-alias). Idempotent; symmetric closure is
  /// maintained internally. Self-aliasing is implicit and not stored.
  void add_alias(VarId x, VarId y);

  /// Declare that x and y share storage. Also records x ~ y.
  /// Returns false (and does nothing) if the two have incompatible
  /// kinds/sizes.
  bool bind(VarId x, VarId y);

  /// May x and y denote the same location? Reflexive.
  [[nodiscard]] bool may_alias(VarId x, VarId y) const;

  /// The alias class [x] = { y : y ~ x }, including x itself, ascending.
  [[nodiscard]] std::vector<VarId> alias_class(VarId x) const;

  /// True if some alias pair (beyond the implicit reflexive ones) exists.
  [[nodiscard]] bool has_aliasing() const { return has_alias_pairs_; }

  /// Representative of the storage-binding equivalence class.
  [[nodiscard]] VarId bind_root(VarId x) const;

  /// True iff x and y are bound to the same storage.
  [[nodiscard]] bool same_storage(VarId x, VarId y) const {
    return bind_root(x) == bind_root(y);
  }

  /// All declared variable ids, ascending.
  [[nodiscard]] std::vector<VarId> all_vars() const;

 private:
  std::optional<VarId> declare(std::string_view name, VarKind kind,
                               std::int64_t size);

  support::IndexMap<VarId, VarInfo> vars_;
  std::unordered_map<std::string, VarId> by_name_;
  // Alias relation as per-variable adjacency bit rows would couple us to
  // a fixed size at declaration time; a flat pair set keeps it simple.
  std::vector<std::vector<bool>> alias_;  // lower-triangular lookup
  mutable std::vector<VarId::underlying_type> bind_parent_;
  bool has_alias_pairs_ = false;

  [[nodiscard]] bool alias_bit(std::size_t a, std::size_t b) const;
  void set_alias_bit(std::size_t a, std::size_t b);
  VarId::underlying_type find_root(VarId::underlying_type i) const;
};

/// A contiguous range of memory cells, as StorageLayout hands them out:
/// the one region type of the translation and the program image (and
/// so of the blob). A translation lists two kinds:
///  * I-structure regions: write-once cells with deferred reads.
///  * Bind-shared regions: updatable cells reachable under more than one
///    program name (a storage-binding class with several members). The
///    translator orders same-name accesses through acknowledgement
///    edges; cross-name ordering flows through ordinary token edges, so
///    the integrity checker's mem-latency spacing rule, whose soundness
///    argument covers only acknowledgement round trips, exempts these
///    cells (machine/integrity.hpp).
struct CellRegion {
  std::uint32_t base = 0;
  std::uint32_t extent = 0;

  friend bool operator==(const CellRegion&, const CellRegion&) = default;
};

/// Assigns every storage-binding class a contiguous cell range. Scalars
/// occupy one cell; arrays occupy `array_size` cells.
class StorageLayout {
 public:
  explicit StorageLayout(const SymbolTable& syms);

  [[nodiscard]] std::size_t total_cells() const { return total_; }
  /// Base cell of variable v's storage.
  [[nodiscard]] std::size_t base(VarId v) const { return base_[v]; }
  /// Number of cells of variable v (1 for scalars).
  [[nodiscard]] std::size_t extent(VarId v) const { return extent_[v]; }

 private:
  support::IndexMap<VarId, std::size_t> base_;
  support::IndexMap<VarId, std::size_t> extent_;
  std::size_t total_ = 0;
};

}  // namespace ctdf::lang
