// Counts heap allocations per cold compile: ProgramCache::get on a
// program it has not seen, the path every `ctdf serve` request of the
// serve-cold workload takes. The compile pipeline sizes its side tables
// once per stage instead of building containers per call, and this
// test keeps it that way.
//
// It is its own executable because it replaces the global operator
// new and delete for the whole binary. The replacements count, then
// forward to malloc and free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/progcache.hpp"
#include "support/cold_programs.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// GCC takes free() inside a replacement operator delete for a mismatch;
// it pairs with the malloc in operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ctdf::core {
namespace {

/// Allocations per miss: 901 when this ceiling was set (3 155 before
/// the compile path stopped building containers per call), plus 20%
/// headroom for libstdc++ growth policies that differ between hosts.
constexpr std::uint64_t kCeiling = 1081;

TEST(ColdCompileAllocations, StayUnderTheCeiling) {
  const std::vector<std::string> sources = testing::serve_cold_sources(64);
  ProgramCache cache;
  const PipelineOptions options(
      translate::TranslateOptions::schema2_optimized());
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  for (const std::string& source : sources) {
    const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
    const ProgramCache::Outcome out = cache.get(source, options);
    allocations += g_allocations.load(std::memory_order_relaxed) - a0;
    bytes += g_bytes.load(std::memory_order_relaxed) - b0;
    ASSERT_EQ(out.disposition, CacheDisposition::kMiss);
  }
  const std::uint64_t per_miss = allocations / sources.size();
  std::printf("cold compile: %llu allocations, %llu bytes per miss\n",
              static_cast<unsigned long long>(per_miss),
              static_cast<unsigned long long>(bytes / sources.size()));
  EXPECT_LE(per_miss, kCeiling);
}

}  // namespace
}  // namespace ctdf::core
