// Program-cache behavior (core/progcache.hpp): key sensitivity, LRU
// accounting, the disk tier's typed-rejection fallback, concurrent
// callers (single-flight compiles, hits that never wait for a compile).
// Correctness bar throughout: a cache-served program must execute
// exactly like a freshly compiled one, and a damaged cache may cost a
// recompile but never an answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "core/progcache.hpp"
#include "lang/corpus.hpp"
#include "machine/blob.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::core {
namespace {

namespace fs = std::filesystem;

std::string scalar_source(int value) {
  return "var x;\n  x := " + std::to_string(value) + " + 1;\n";
}

PipelineOptions default_po() {
  return PipelineOptions(translate::TranslateOptions::schema2_optimized());
}

/// XORs one byte of a file in place (simulated bit rot).
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  const int b = f.get();
  ASSERT_NE(b, EOF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(b ^ 0x40));
}

/// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/progcache_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The number of cache blobs in `dir`.
std::size_t blob_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".ctdfblob") ++n;
  return n;
}

TEST(ProgramCacheKey, StableAndSensitiveToWhatShapesTheImage) {
  const std::string src = lang::corpus::running_example_source();
  const PipelineOptions po = default_po();
  EXPECT_EQ(program_cache_key(src, po), program_cache_key(src, po));
  EXPECT_NE(program_cache_key(src, po),
            program_cache_key(src + " ", po));

  PipelineOptions mem = po;
  mem.translate.eliminate_memory = true;
  EXPECT_NE(program_cache_key(src, po), program_cache_key(src, mem));

  PipelineOptions fuse = po;
  fuse.translate.opt_level = dfg::OptLevel::kAll;
  EXPECT_NE(program_cache_key(src, po), program_cache_key(src, fuse));

  PipelineOptions istr = po;
  istr.translate.istructure_arrays = {"x"};
  EXPECT_NE(program_cache_key(src, po), program_cache_key(src, istr));

  // Trace-only toggles do not change the image, so they must not
  // change the address: a --stage-stats run and a plain run share one
  // cache entry.
  PipelineOptions traced = po;
  traced.compute_ssa = true;
  traced.dump_after = Stage::kTranslate;
  EXPECT_EQ(program_cache_key(src, po), program_cache_key(src, traced));
}

TEST(ProgramCacheKey, DefaultOptionsAndOptNoneShareOneKey) {
  // The optimize stage has one switch, the --opt level. The default is
  // none, as --opt=none sets it, so both compile the same image and
  // must share one address.
  const std::string src = lang::corpus::running_example_source();
  PipelineOptions none = default_po();
  ASSERT_EQ(translate::apply_schema_flag(none.translate, "--opt=none"),
            translate::SchemaFlagParse::kApplied);
  EXPECT_EQ(program_cache_key(src, default_po()),
            program_cache_key(src, none));
  EXPECT_EQ(machine::serialize(
                make_program_image(Pipeline(default_po()).run(src))),
            machine::serialize(make_program_image(Pipeline(none).run(src))));

  // Any other level is a different image and a different address.
  PipelineOptions cleanup = default_po();
  ASSERT_EQ(translate::apply_schema_flag(cleanup.translate, "--opt=cleanup"),
            translate::SchemaFlagParse::kApplied);
  EXPECT_NE(program_cache_key(src, default_po()),
            program_cache_key(src, cleanup));
}

TEST(ProgramCacheKey, OptLevelsKeepTheAddressesOfTheirPassSets) {
  // Each --opt level hashes as the pass mask and fuse limit it stands
  // for, so the addresses (and disk blob names) recorded when passes
  // were selected one by one still hold: none, --post-opt (now
  // --opt=cleanup) and --opt=all. A kBlobVersion bump renames them all.
  const std::string src = lang::corpus::running_example_source();
  const struct {
    const char* flag;
    std::uint64_t key;
  } rows[] = {{"--opt=none", 0x5c994ef0b16a86b6},
              {"--opt=cleanup", 0x5ee8aba01fbe14c4},
              {"--opt=all", 0xaeeaa285189e2241}};
  for (const auto& row : rows) {
    PipelineOptions po = default_po();
    ASSERT_EQ(translate::apply_schema_flag(po.translate, row.flag),
              translate::SchemaFlagParse::kApplied);
    EXPECT_EQ(program_cache_key(src, po), row.key) << row.flag;
  }
}

TEST(ProgramCache, MissThenMemoryHitSharesTheEntry) {
  ProgramCache cache;
  const std::string src = lang::corpus::running_example_source();
  const auto first = cache.get(src, default_po());
  EXPECT_EQ(first.disposition, CacheDisposition::kMiss);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_GT(first.entry->blob_bytes, 0u);
  EXPECT_NE(first.entry->content_hash, 0u);
  EXPECT_FALSE(first.trace.stages.empty());  // the compile ran

  const auto second = cache.get(src, default_po());
  EXPECT_EQ(second.disposition, CacheDisposition::kHitMemory);
  EXPECT_EQ(second.entry.get(), first.entry.get());
  EXPECT_TRUE(second.trace.stages.empty());  // nothing ran

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.blob_bytes, first.entry->blob_bytes);
}

TEST(ProgramCache, CacheServedProgramsExecuteIdentically) {
  ProgramCache cache;
  const std::string src = lang::corpus::fig9_source();
  (void)cache.get(src, default_po());
  const auto hit = cache.get(src, default_po());
  ASSERT_EQ(hit.disposition, CacheDisposition::kHitMemory);

  const auto fresh = core::make_program_image(
      Pipeline(default_po()).run(src));
  const machine::MachineOptions mopt;
  const auto a = execute(hit.entry->image, mopt);
  const auto b = execute(fresh, mopt);
  ASSERT_TRUE(a.stats.completed) << a.stats.error_detail.render();
  EXPECT_EQ(a.store, b.store);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.ops_fired, b.stats.ops_fired);
}

TEST(ProgramCache, LruEvictsTheLeastRecentlyTouchedEntry) {
  ProgramCache::Config cfg;
  cfg.capacity = 2;
  ProgramCache cache(cfg);
  const PipelineOptions po = default_po();

  (void)cache.get(scalar_source(1), po);
  (void)cache.get(scalar_source(2), po);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_EQ(cache.get(scalar_source(1), po).disposition,
            CacheDisposition::kHitMemory);
  (void)cache.get(scalar_source(3), po);

  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);

  // 1 survived (recently used), 2 was evicted and recompiles.
  EXPECT_EQ(cache.get(scalar_source(1), po).disposition,
            CacheDisposition::kHitMemory);
  EXPECT_EQ(cache.get(scalar_source(2), po).disposition,
            CacheDisposition::kMiss);

  // blob_bytes tracks exactly the resident entries.
  s = cache.stats();
  const auto e1 = cache.get(scalar_source(1), po);
  const auto e2 = cache.get(scalar_source(2), po);
  EXPECT_EQ(cache.stats().blob_bytes,
            e1.entry->blob_bytes + e2.entry->blob_bytes);
}

TEST(ProgramCache, ZeroCapacityIsClampedToOne) {
  ProgramCache::Config cfg;
  cfg.capacity = 0;
  ProgramCache cache(cfg);
  (void)cache.get(scalar_source(1), default_po());
  EXPECT_EQ(cache.stats().entries, 1u);
  (void)cache.get(scalar_source(2), default_po());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ProgramCache, DiskTierServesANewProcess) {
  const std::string dir = fresh_dir("disk_tier");
  ProgramCache::Config cfg;
  cfg.dir = dir;
  const std::string src = lang::corpus::running_example_source();

  std::uint64_t content_hash = 0;
  {
    ProgramCache cold(cfg);
    const auto out = cold.get(src, default_po());
    EXPECT_EQ(out.disposition, CacheDisposition::kMiss);
    content_hash = out.entry->content_hash;
  }
  // The blob landed under the key-derived name.
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(
                    program_cache_key(src, default_po())));
  const std::string path = dir + "/" + std::string(name) + ".ctdfblob";
  ASSERT_TRUE(fs::exists(path)) << path;

  // A second cache (a "new process") decodes instead of compiling.
  ProgramCache warm(cfg);
  const auto out = warm.get(src, default_po());
  EXPECT_EQ(out.disposition, CacheDisposition::kHitDisk);
  EXPECT_EQ(out.entry->content_hash, content_hash);
  EXPECT_TRUE(out.trace.stages.empty());
  const CacheStats s = warm.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.misses, 0u);

  const auto ran = execute(out.entry->image, machine::MachineOptions{});
  EXPECT_TRUE(ran.stats.completed) << ran.stats.error_detail.render();
}

TEST(ProgramCache, CorruptDiskBlobIsRejectedRecompiledAndRewritten) {
  const std::string dir = fresh_dir("corrupt");
  ProgramCache::Config cfg;
  cfg.dir = dir;
  const std::string src = lang::corpus::running_example_source();
  { ProgramCache seed(cfg); (void)seed.get(src, default_po()); }

  // Flip one payload byte in the only blob on disk.
  std::string path;
  for (const auto& e : fs::directory_iterator(dir)) path = e.path();
  ASSERT_FALSE(path.empty());
  flip_byte(path, machine::kBlobHeaderSize + 3);

  ProgramCache burned(cfg);
  const auto out = burned.get(src, default_po());
  EXPECT_EQ(out.disposition, CacheDisposition::kMiss);  // recompiled
  EXPECT_EQ(burned.stats().disk_rejects, 1u);
  const auto ran = execute(out.entry->image, machine::MachineOptions{});
  EXPECT_TRUE(ran.stats.completed) << ran.stats.error_detail.render();

  // The rewrite healed the file: the next process gets a disk hit.
  ProgramCache healed(cfg);
  EXPECT_EQ(healed.get(src, default_po()).disposition,
            CacheDisposition::kHitDisk);
}

TEST(ProgramCache, StaleFormatGenerationOnDiskIsADiskReject) {
  const std::string dir = fresh_dir("stale");
  ProgramCache::Config cfg;
  cfg.dir = dir;
  const std::string src = scalar_source(7);
  { ProgramCache seed(cfg); (void)seed.get(src, default_po()); }

  std::string path;
  for (const auto& e : fs::directory_iterator(dir)) path = e.path();
  {
    // Pretend the blob came from a newer format generation.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(machine::kBlobMagicSize));
    f.put(static_cast<char>(machine::kBlobVersion + 1));
  }
  ProgramCache c(cfg);
  EXPECT_EQ(c.get(src, default_po()).disposition, CacheDisposition::kMiss);
  EXPECT_EQ(c.stats().disk_rejects, 1u);
}

TEST(ProgramCache, DiskCapacityCapsTheFileCount) {
  const std::string dir = fresh_dir("disk_cap");
  ProgramCache::Config cfg;
  cfg.dir = dir;
  cfg.disk_capacity = 2;
  ProgramCache cache(cfg);
  for (int i = 1; i <= 4; ++i)
    (void)cache.get(scalar_source(i), default_po());
  EXPECT_LE(blob_files(dir), 2u);
}

TEST(ProgramCache, CompileErrorsAreNotCached) {
  ProgramCache cache;
  const std::string bad = "var x;\n  x := ;\n";
  EXPECT_THROW((void)cache.get(bad, default_po()), support::CompileError);
  EXPECT_THROW((void)cache.get(bad, default_po()), support::CompileError);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 0u);
}

// ---- concurrent callers ------------------------------------------------

constexpr int kThreads = 8;

/// Runs `body(i)` on kThreads threads released together, so their
/// get calls overlap as much as the host allows.
template <typename Body>
void on_threads(Body body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      body(i);
    });
  for (std::thread& t : pool) t.join();
}

TEST(ProgramCacheConcurrency, OneKeyIsCompiledOnceAndSharedByAllCallers) {
  ProgramCache cache;
  const std::string src = lang::corpus::running_example_source();
  std::vector<const ProgramCache::Entry*> seen(kThreads);
  on_threads([&](int i) { seen[i] = cache.get(src, default_po()).entry.get(); });
  for (const ProgramCache::Entry* e : seen) EXPECT_EQ(e, seen.front());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kThreads - 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ProgramCacheConcurrency, DistinctKeysAllCompileAndStayResident) {
  ProgramCache cache;
  on_threads([&](int i) {
    EXPECT_EQ(cache.get(scalar_source(i), default_po()).disposition,
              CacheDisposition::kMiss);
  });
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, static_cast<std::uint64_t>(kThreads));
}

TEST(ProgramCacheConcurrency, AFailedCompileWakesEveryWaiterWithItsOwnError) {
  ProgramCache cache;
  const std::string bad = "var x;\n  x := ;\n";
  std::atomic<int> errors{0};
  on_threads([&](int) {
    try {
      (void)cache.get(bad, default_po());
    } catch (const support::CompileError&) {
      errors.fetch_add(1);
    }
  });
  EXPECT_EQ(errors.load(), kThreads);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is no longer marked as compiling: a mark left behind would
  // park this call forever.
  EXPECT_THROW((void)cache.get(bad, default_po()), support::CompileError);
}

TEST(ProgramCacheConcurrency, AHitIsServedWhileAnotherKeyCompiles) {
  ProgramCache cache;
  const std::string hot = scalar_source(1);
  (void)cache.get(hot, default_po());

  // Large enough that its compile spans many hits: 8 000 lines of two
  // statements each.
  std::string big = "var x, y;\n";
  for (int i = 0; i < 8000; ++i)
    big += "  x := x + " + std::to_string(i) + "; y := y + x;\n";

  std::atomic<bool> compile_started{false};
  std::atomic<bool> hit_returned{false};
  bool hit_returned_first = false;
  std::thread compiler([&] {
    compile_started.store(true);
    const auto out = cache.get(big, default_po());
    hit_returned_first = hit_returned.load();
    EXPECT_EQ(out.disposition, CacheDisposition::kMiss);
  });
  std::thread reader([&] {
    while (!compile_started.load()) std::this_thread::yield();
    // Let the compiler get past hashing its key and into the pipeline;
    // the check below is the flag order, not this pause.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(cache.get(hot, default_po()).disposition,
              CacheDisposition::kHitMemory);
    hit_returned.store(true);
  });
  reader.join();
  compiler.join();
  EXPECT_TRUE(hit_returned_first)
      << "the hit waited for another key's compile";
}

TEST(ProgramCacheConcurrency, EvictedEntriesStayUsableByTheirHolders) {
  // Capacity 1: every miss evicts the entry another thread may still be
  // executing. The holder's reference keeps it alive; the cache frees
  // it, outside its mutex, only if the cache held the last reference.
  ProgramCache::Config cfg;
  cfg.capacity = 1;
  ProgramCache cache(cfg);
  constexpr int kRounds = 6;
  on_threads([&](int i) {
    for (int round = 0; round < kRounds; ++round) {
      const int value = i * kRounds + round;
      const ProgramCache::Outcome out =
          cache.get(scalar_source(value), default_po());
      const auto ran = execute(out.entry->image, machine::MachineOptions{});
      ASSERT_TRUE(ran.stats.completed) << ran.stats.error_detail.render();
      EXPECT_EQ(ran.store.cells.at(0), value + 1);
      (void)cache.stats();
    }
  });
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, s.misses - 1);
}

TEST(ProgramCacheConcurrency, RacingMissesWithADiskTierWriteOneBlob) {
  const std::string dir = fresh_dir("racing_misses");
  ProgramCache::Config cfg;
  cfg.dir = dir;
  const std::string src = lang::corpus::running_example_source();
  {
    ProgramCache cache(cfg);
    std::thread a([&] { (void)cache.get(src, default_po()); });
    std::thread b([&] { (void)cache.get(src, default_po()); });
    a.join();
    b.join();
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
  }
  EXPECT_EQ(blob_files(dir), 1u);
  ProgramCache fresh(cfg);
  EXPECT_EQ(fresh.get(src, default_po()).disposition,
            CacheDisposition::kHitDisk);
}

}  // namespace
}  // namespace ctdf::core
