// Shared SplitMix64 mixing primitives and the streaming content hash.
//
// The same finalizer (Steele/Lea/Flood constants) was copied between the
// RNG and the PE placement hash; one header keeps the constants and the
// avalanche in a single place so the streams stay bit-identical across
// call sites.
//
// Fnv1a64 is the one streaming hash of the codebase: ExecProgram blob
// integrity headers (machine/blob.hpp) and program-cache keys
// (core/progcache.hpp) both use it, so a blob's on-disk identity and
// its cache address come from the same function. The digest is part of
// the persisted blob format — changing the constants or the finalizer
// is a format break and must bump machine::kBlobVersion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ctdf::support {

/// 2^64 / golden ratio — the SplitMix64 stream increment, also used as a
/// multiplicative spreader for placement hashing.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 output finalizer: full-avalanche bijection on 64 bits.
inline constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Golden-ratio multiplicative hash into [0, n): spreads consecutive ids
/// across buckets. `n` must be > 0.
inline constexpr std::uint32_t golden_bucket(std::uint64_t id,
                                             std::uint32_t n) {
  return static_cast<std::uint32_t>(((id * kGoldenGamma) >> 33) % n);
}

/// Streaming 64-bit FNV-1a with a SplitMix64 avalanche on output.
/// Order-sensitive; length-prefix helpers keep concatenation ambiguity
/// out of composite keys ("ab"+"c" vs "a"+"bc" hash differently).
class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr void update_byte(std::uint8_t b) {
    state_ = (state_ ^ b) * kPrime;
  }
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) update_byte(p[i]);
  }
  /// Little-endian, all eight bytes — a fixed-width field.
  constexpr void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Length-prefixed so adjacent strings cannot alias.
  void update_string(std::string_view s) {
    update_u64(s.size());
    update(s.data(), s.size());
  }

  [[nodiscard]] constexpr std::uint64_t digest() const {
    return splitmix64_mix(state_);
  }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot content hash of a byte range (the blob integrity header).
inline std::uint64_t content_hash64(const void* data, std::size_t n) {
  Fnv1a64 h;
  h.update(data, n);
  return h.digest();
}

}  // namespace ctdf::support
