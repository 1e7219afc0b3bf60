// Strong index types.
//
// Nearly every module in ctdf addresses entities by dense integer index
// (CFG nodes, DFG nodes, variables, frame contexts, instructions).
// Using a distinct wrapper type per entity prevents the classic bug of
// passing a CFG node id where a DFG node id is expected; the wrapper
// compiles down to a bare uint32_t.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace ctdf::support {

/// A strongly-typed dense index. `Tag` is any (possibly incomplete) type
/// used purely for differentiation.
template <typename Tag>
class Id {
 public:
  using underlying_type = std::uint32_t;
  static constexpr underlying_type kInvalid =
      std::numeric_limits<underlying_type>::max();

  constexpr Id() = default;
  constexpr explicit Id(underlying_type v) : value_(v) {}
  constexpr explicit Id(std::size_t v)
      : value_(static_cast<underlying_type>(v)) {}

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  static constexpr Id invalid() { return Id{}; }

  friend constexpr auto operator<=>(Id, Id) = default;

 private:
  underlying_type value_ = kInvalid;
};

/// The ids 0 .. n-1 in ascending order, as a range over no container.
/// `n` is fixed when the range is made, so a loop over it may add ids.
template <typename IdT>
class IdRange {
 public:
  class iterator {
   public:
    constexpr explicit iterator(typename IdT::underlying_type v) : v_(v) {}
    constexpr IdT operator*() const { return IdT{v_}; }
    constexpr iterator& operator++() {
      ++v_;
      return *this;
    }
    friend constexpr bool operator==(iterator, iterator) = default;

   private:
    typename IdT::underlying_type v_;
  };

  constexpr explicit IdRange(std::size_t n)
      : n_(static_cast<typename IdT::underlying_type>(n)) {}

  [[nodiscard]] constexpr iterator begin() const { return iterator{0}; }
  [[nodiscard]] constexpr iterator end() const { return iterator{n_}; }

 private:
  typename IdT::underlying_type n_;
};

}  // namespace ctdf::support

template <typename Tag>
struct std::hash<ctdf::support::Id<Tag>> {
  std::size_t operator()(ctdf::support::Id<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
