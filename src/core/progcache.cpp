#include "core/progcache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "support/hash.hpp"

namespace ctdf::core {

namespace fs = std::filesystem;

std::uint64_t program_cache_key(std::string_view source,
                                const PipelineOptions& options) {
  const translate::TranslateOptions& t = options.translate;
  support::Fnv1a64 h;
  // A format bump renames every address: a new binary never maps onto
  // old-format disk blobs (they would be rejected anyway; this avoids
  // even reading them).
  h.update_u64(machine::kBlobVersion);
  h.update_string(source);
  h.update_u64(t.sequential ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(t.cover));
  h.update_u64(t.optimize_switches ? 1 : 0);
  h.update_u64(t.eliminate_memory ? 1 : 0);
  h.update_u64(t.parallel_reads ? 1 : 0);
  h.update_u64(t.dead_store_elimination ? 1 : 0);
  // Each level hashes as the pass mask and fuse limit it replaced (none
  // 0, cleanup 63, all 127; limit 8), so no address moved with it.
  h.update_u64(t.opt_level == dfg::OptLevel::kNone      ? 0
               : t.opt_level == dfg::OptLevel::kCleanup ? 63
                                                        : 127);
  h.update_u64(dfg::kFuseLimit);
  h.update_u64(t.max_fanout);
  h.update_u64(t.parallel_store_arrays.size());
  for (const auto& a : t.parallel_store_arrays) h.update_string(a);
  h.update_u64(t.istructure_arrays.size());
  for (const auto& a : t.istructure_arrays) h.update_string(a);
  return h.digest();
}

const char* to_string(CacheDisposition d) {
  switch (d) {
    case CacheDisposition::kMiss:
      return "miss";
    case CacheDisposition::kHitMemory:
      return "hit-memory";
    case CacheDisposition::kHitDisk:
      return "hit-disk";
  }
  return "?";
}

ProgramCache::ProgramCache() : ProgramCache(Config()) {}

ProgramCache::ProgramCache(Config config) : config_(std::move(config)) {
  if (config_.capacity == 0) config_.capacity = 1;
}

std::string ProgramCache::blob_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(key));
  return config_.dir + "/" + name + ".ctdfblob";
}

std::shared_ptr<const ProgramCache::Entry> ProgramCache::insert_locked(
    std::shared_ptr<const Entry> entry) {
  const std::uint64_t key = entry->key;
  lru_.push_front(key);
  stats_.blob_bytes += entry->blob_bytes;
  map_[key] = Slot{std::move(entry), lru_.begin()};
  std::shared_ptr<const Entry> evicted;
  // One insert adds at most one entry, so it evicts at most one.
  if (map_.size() > config_.capacity) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = map_.find(victim);
    stats_.blob_bytes -= it->second.entry->blob_bytes;
    evicted = std::move(it->second.entry);
    map_.erase(it);
    ++stats_.evictions;
  }
  stats_.entries = map_.size();
  return evicted;
}

void ProgramCache::write_disk_blob(std::uint64_t key,
                                   const std::vector<std::uint8_t>& blob) {
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  // A failed write only means the next process recompiles.
  (void)machine::write_blob_file(blob_path(key), blob);
  // Enforce the file cap with oldest-mtime eviction.
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  for (const auto& e : fs::directory_iterator(config_.dir, ec)) {
    if (e.path().extension() == ".ctdfblob")
      files.emplace_back(fs::last_write_time(e.path(), ec), e.path());
  }
  if (files.size() <= config_.disk_capacity) return;
  std::sort(files.begin(), files.end());
  for (std::size_t i = 0; i + config_.disk_capacity < files.size(); ++i)
    fs::remove(files[i].second, ec);
}

ProgramCache::Outcome ProgramCache::get(std::string_view source,
                                        const PipelineOptions& options) {
  const std::uint64_t key = program_cache_key(source, options);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (const auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      it->second.lru_pos = lru_.begin();
      ++stats_.hits;
      return {it->second.entry, CacheDisposition::kHitMemory, {}};
    }
    if (compiling_.insert(key).second) break;
    compiled_.wait(lock);  // another caller is compiling this key
  }
  // The entry this miss evicts. Declared before `unmark`, so it is
  // destroyed after unmark has unlocked: when the cache held the last
  // reference, its tables are freed outside mu_, not while other
  // callers' get and stats() wait.
  std::shared_ptr<const Entry> evicted;
  // Clears the mark and wakes the waiters on every exit path. A compile
  // that throws caches nothing, so each waiter retries it and gets its
  // own error.
  struct Unmark {
    ProgramCache& cache;
    std::unique_lock<std::mutex>& lock;
    std::uint64_t key;
    ~Unmark() {
      if (!lock.owns_lock()) lock.lock();
      cache.compiling_.erase(key);
      lock.unlock();
      cache.compiled_.notify_all();
    }
  } unmark{*this, lock, key};
  lock.unlock();

  // Unlocked from here to the publish: only this caller works on `key`.
  Outcome out;
  bool disk_reject = false;
  if (!config_.dir.empty()) {
    machine::BlobReadResult read = machine::read_blob_file(blob_path(key));
    if (read.ok()) {
      auto entry = std::make_shared<Entry>();
      entry->key = key;
      entry->image = std::move(read.image);
      entry->blob_bytes = read.blob_bytes;
      entry->content_hash = read.content_hash;
      out = {std::move(entry), CacheDisposition::kHitDisk, {}};
    } else {
      // kUnreadable = not there yet (a plain miss); anything else is a
      // stale/corrupt/truncated blob — count it, recompile, rewrite.
      disk_reject = read.error != machine::BlobError::kUnreadable;
    }
  }
  if (!out.entry) {
    CompileResult cr = Pipeline(options).run(source);
    out.trace = std::move(cr.trace);
    auto entry = std::make_shared<Entry>();
    entry->key = key;
    entry->image = make_program_image(std::move(cr));
    const std::vector<std::uint8_t> blob = machine::serialize(entry->image);
    entry->blob_bytes = blob.size();
    entry->content_hash = machine::blob_content_hash(blob);
    if (!config_.dir.empty()) write_disk_blob(key, blob);
    out.entry = std::move(entry);
  }

  lock.lock();
  if (disk_reject) ++stats_.disk_rejects;
  if (out.disposition == CacheDisposition::kHitDisk)
    ++stats_.disk_hits;
  else
    ++stats_.misses;
  evicted = insert_locked(out.entry);
  return out;
}

CacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void write_cache_json(support::JsonWriter& w, const CacheStats& stats,
                      CacheDisposition disposition, std::uint64_t key) {
  w.begin_block()
      .member("disposition", to_string(disposition))
      .key("key")
      .hex16(key)
      .member("hits", stats.hits)
      .member("disk_hits", stats.disk_hits)
      .member("misses", stats.misses)
      .member("evictions", stats.evictions)
      .member("disk_rejects", stats.disk_rejects)
      .member("entries", stats.entries)
      .member("blob_bytes", stats.blob_bytes)
      .end_object();
}

std::string render_cache_json(const CacheStats& stats,
                              CacheDisposition disposition,
                              std::uint64_t key) {
  std::string out;
  support::JsonWriter w(out, support::JsonWriter::Layout::kMultiLine, 1);
  write_cache_json(w, stats, disposition, key);
  return out;
}

}  // namespace ctdf::core
