// Content-addressed program cache: compile once, serve many.
//
// The paper's economics (Section 7) price translation as the expensive
// one-time act and token execution as the cheap repeatable one. This
// cache is that argument turned into infrastructure: a (source, option
// ladder) pair is hashed into a 64-bit key; the first request compiles
// through core::Pipeline and stores the resulting machine::ProgramImage;
// every later identical request skips the entire 13-stage pipeline plus
// lowering and goes straight to execution. `ctdf serve` and `ctdf run
// --cache-dir=` both multiplex off this one class.
//
// Two tiers:
//  * an in-memory LRU of deserialization-free ProgramImages (capacity
//    in entries, least-recently-used eviction);
//  * an optional on-disk tier of serialized blobs (machine/blob.hpp)
//    under Config::dir, named <16-hex-key>.ctdfblob, capped at
//    Config::disk_capacity files with oldest-mtime eviction. Disk blobs
//    survive the process, so a warm cache directory turns even the
//    first request of a new process into a decode instead of a compile.
//
// Every disk read goes through the blob reader's typed rejection
// (stale version, truncation, corruption): a bad blob counts as a
// disk_reject, the program is recompiled, and the file is rewritten —
// cache corruption can cost time, never correctness.
//
// Key definition (see program_cache_key): Fnv1a64 over the source text
// and every graph-shaping TranslateOptions field — schema/cover,
// switch placement, memory elimination, read/store parallelization,
// DSE, the optimizer level (hashed as the pass mask and fuse limit it
// replaced, so addresses did not move), fan-out bound, and the
// per-array name lists — plus machine::kBlobVersion so a format bump
// invalidates every address at once. The pipeline options that only
// affect traces/dumps (compute_ssa, dump_after) are deliberately
// excluded: they do not change the image.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/pipeline.hpp"
#include "machine/blob.hpp"
#include "support/json_writer.hpp"

namespace ctdf::core {

/// The cache address of a (source, options) pair. Pure function of its
/// arguments; stable across processes (it names disk blobs).
[[nodiscard]] std::uint64_t program_cache_key(std::string_view source,
                                              const PipelineOptions& options);

/// Monotonic counters, all surfaced in --stats-json / --stage-stats /
/// serve responses.
struct CacheStats {
  std::uint64_t hits = 0;          ///< in-memory LRU hits
  std::uint64_t disk_hits = 0;     ///< misses served by a disk blob
  std::uint64_t misses = 0;        ///< full recompilations
  std::uint64_t evictions = 0;     ///< in-memory LRU entries dropped
  std::uint64_t disk_rejects = 0;  ///< disk blobs rejected (stale/corrupt)
  std::uint64_t entries = 0;       ///< current in-memory entry count
  std::uint64_t blob_bytes = 0;    ///< serialized size of resident entries
};

/// Where one request's program came from.
enum class CacheDisposition : std::uint8_t {
  kMiss,       ///< compiled by this request
  kHitMemory,  ///< served from the in-memory LRU
  kHitDisk,    ///< decoded from a disk blob
};

[[nodiscard]] const char* to_string(CacheDisposition d);

class ProgramCache {
 public:
  struct Config {
    /// In-memory LRU capacity, entries. Must be ≥ 1.
    std::size_t capacity = 64;
    /// On-disk blob directory; empty = no disk tier. Created on first
    /// write if missing.
    std::string dir;
    /// Disk tier capacity, files; oldest-mtime eviction past the cap.
    std::size_t disk_capacity = 256;
  };

  /// One cached compilation. Immutable once published; shared_ptr so a
  /// reader can keep executing an entry the LRU has since evicted.
  struct Entry {
    std::uint64_t key = 0;
    machine::ProgramImage image;
    /// Serialized blob size (header + payload) and payload hash — the
    /// entry's content address, reported in responses.
    std::uint64_t blob_bytes = 0;
    std::uint64_t content_hash = 0;
  };

  struct Outcome {
    std::shared_ptr<const Entry> entry;
    CacheDisposition disposition = CacheDisposition::kMiss;
    /// The compile's pipeline trace (stage timings); empty on hits —
    /// nothing ran.
    PipelineTrace trace;
  };

  ProgramCache();
  explicit ProgramCache(Config config);

  /// Compile-or-fetch. Pipeline::run expands subroutine constructs, so
  /// the same surface syntax the CLI accepts is cacheable; the key is
  /// the caller's text. Throws support::CompileError for programs that
  /// do not compile (compile errors are not cached).
  ///
  /// Thread-safe. mu_ guards only the map, the LRU list, the counters
  /// and the set of keys being compiled. A miss marks its key, drops
  /// the lock, reads the disk blob or runs the pipeline, lowering,
  /// serialization and the disk write, then relocks to
  /// publish the entry and clear the mark. So misses on different keys
  /// compile in parallel, and a hit never waits for a compile.
  /// Single-flight: a caller that misses on a key another caller is
  /// compiling waits for it and takes the entry as a memory hit, so a
  /// program is compiled once however many callers ask at once. If that
  /// compile throws, nothing is cached: each waiter retries and gets
  /// its own error.
  [[nodiscard]] Outcome get(std::string_view source,
                            const PipelineOptions& options);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  /// Inserts an entry, evicting the least-recently-used past capacity.
  /// Caller holds mu_. Returns the evicted entry (or null) so the caller
  /// can drop it after unlocking.
  [[nodiscard]] std::shared_ptr<const Entry> insert_locked(
      std::shared_ptr<const Entry> entry);
  [[nodiscard]] std::string blob_path(std::uint64_t key) const;
  void write_disk_blob(std::uint64_t key,
                       const std::vector<std::uint8_t>& blob);

  Config config_;
  mutable std::mutex mu_;
  std::condition_variable compiled_;  ///< a key left compiling_
  std::list<std::uint64_t> lru_;  ///< most-recent first
  std::unordered_map<std::uint64_t, Slot> map_;
  std::unordered_set<std::uint64_t> compiling_;  ///< keys being compiled
  CacheStats stats_;
};

/// The cache object of `--stats-json` and serve responses: stats plus
/// this request's disposition and key, written as a block object
/// through `w`. Key set frozen by
/// tests/machine_stats_json_schema_test.cpp.
void write_cache_json(support::JsonWriter& w, const CacheStats& stats,
                      CacheDisposition disposition, std::uint64_t key);

/// write_cache_json's object in the multi-line layout, one level deep
/// (the CLI's --stats-json nests it under "cache").
[[nodiscard]] std::string render_cache_json(const CacheStats& stats,
                                            CacheDisposition disposition,
                                            std::uint64_t key);

}  // namespace ctdf::core
