// Counts heap allocations per cold compile: ProgramCache::get on a
// program it has not seen, the path every `ctdf serve` request of the
// serve-cold workload takes, and per cold Server::handle_line, which
// adds request parsing, execution and the response. The compile
// pipeline sizes its side tables once per stage instead of building
// containers per call, keeps short per-node lists inline, and the
// response is written into one string; these tests keep it that way.
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

#include "core/compiler.hpp"
#include "core/progcache.hpp"
#include "serve/serve.hpp"
#include "support/cold_programs.hpp"
#include "support/json_writer.hpp"

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

/// Allocations per miss: 441 when this ceiling was set (3 155 before
/// the compile path stopped building containers per call, 835 before
/// per-node lists went inline and the CFG stopped copying expressions),
/// plus 20% headroom for libstdc++ growth policies that differ between
/// hosts.
constexpr std::uint64_t kCeiling = 529;

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

/// Allocations per cold handle_line: 522 when this ceiling was set
/// (943 before the compile changes above and the single-pass response
/// writer), plus 20% headroom.
constexpr std::uint64_t kServeCeiling = 626;

/// perfbench's serve-cold request: a run of a program no earlier
/// request sent, printing every variable.
std::string cold_request(std::size_t id, const std::string& source) {
  const lang::Program prog = parse(source);
  std::string print;
  for (const lang::VarId v : prog.symbols.all_vars())
    print += (print.empty() ? "\"" : ", \"") + prog.symbols.name(v) + "\"";
  return "{\"id\": " + std::to_string(id) +
         ", \"op\": \"run\", \"source\": \"" +
         support::json_escape(source) + "\", \"print\": [" + print + "]}";
}

TEST(ColdServeAllocations, StayUnderTheCeiling) {
  // The first 64 requests fill the default 64-entry cache, so each
  // counted request also evicts an entry, as a long serve-cold run does.
  constexpr std::size_t kFill = 64;
  constexpr std::size_t kCounted = 200;
  const std::vector<std::string> sources =
      testing::serve_cold_sources(static_cast<int>(kFill + kCounted));
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < sources.size(); ++i)
    lines.push_back(cold_request(i, sources[i]));
  serve::Server server;
  ASSERT_EQ(server.cache().config().capacity, kFill);
  for (std::size_t i = 0; i < kFill; ++i) (void)server.handle_line(lines[i]);
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = kFill; i < lines.size(); ++i) {
    const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
    const std::string response = server.handle_line(lines[i]);
    allocations += g_allocations.load(std::memory_order_relaxed) - a0;
    bytes += g_bytes.load(std::memory_order_relaxed) - b0;
    ASSERT_NE(response.find("\"ok\": true"), std::string::npos) << response;
    ASSERT_NE(response.find("\"disposition\": \"miss\""), std::string::npos);
  }
  EXPECT_EQ(server.cache().stats().evictions, kCounted);
  const std::uint64_t per_request = allocations / kCounted;
  std::printf("cold handle_line: %llu allocations, %llu bytes per request\n",
              static_cast<unsigned long long>(per_request),
              static_cast<unsigned long long>(bytes / kCounted));
  EXPECT_LE(per_request, kServeCeiling);
}

}  // namespace
}  // namespace ctdf::core
