// Golden key-set regression for --stats-json: downstream consumers
// (scripts/bench_machine.py, CI parsers) key on exact field names, so
// adding, renaming, or reordering a field must be a deliberate act that
// updates this test. The keys are asserted in emission order for the
// options object, the typed error object, and the top level, on both a
// successful and a failing run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "core/progcache.hpp"
#include "lang/corpus.hpp"
#include "machine/report.hpp"

namespace ctdf::machine {
namespace {

/// Keys of a flat JSON object rendering, in order of appearance:
/// every `"name":` found between `from` and the object's closing
/// brace, skipping nested objects' contents when `top_level_only`.
std::vector<std::string> keys_of(const std::string& json, std::size_t from,
                                 bool top_level_only) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = from; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) break;
    } else if (c == '"' && (depth == 1 || !top_level_only)) {
      const std::size_t end = json.find('"', i + 1);
      if (end == std::string::npos) break;
      if (json.compare(end + 1, 1, ":") == 0)
        keys.push_back(json.substr(i + 1, end - i - 1));
      i = end;
      // Skip the value: a string value would otherwise read as a key.
      std::size_t v = end + 2;
      while (v < json.size() && json[v] == ' ') ++v;
      if (v < json.size() && json[v] == '"') {
        i = json.find('"', v + 1);
        if (i == std::string::npos) break;
      } else if (top_level_only && v < json.size() && json[v] == '{') {
        int d = 0;
        for (; v < json.size(); ++v) {
          if (json[v] == '{') ++d;
          if (json[v] == '}' && --d == 0) break;
        }
        i = v;
      }
    }
  }
  return keys;
}

std::vector<std::string> object_keys(const std::string& json,
                                     const std::string& name) {
  const std::size_t at = json.find("\"" + name + "\": {");
  EXPECT_NE(at, std::string::npos) << name << " missing in:\n" << json;
  if (at == std::string::npos) return {};
  return keys_of(json, json.find('{', at), false);
}

const std::vector<std::string> kTopLevelKeys = {
    "options", "completed", "error", "error_string", "cycles", "ops_fired",
    "tokens_sent", "matches", "contexts_allocated", "mem_reads",
    "mem_writes", "peak_live_contexts", "throttle_stalls", "deferred_reads",
    "peak_ready", "leftover_tokens", "backpressure_stalls",
    "integrity_checks", "avg_parallelism", "fired_by_kind"};

const std::vector<std::string> kOptionsKeys = {
    "check", "loop_mode", "width", "loop_bound", "processors",
    "placement", "network_latency", "alu_latency", "mem_latency",
    "scheduler_seed", "frame_capacity", "max_cycles", "deadline_ms",
    "max_tokens"};

const std::vector<std::string> kErrorKeys = {"code", "message", "diagnosis"};

TEST(StatsJsonSchema, SuccessfulRunEmitsTheGoldenKeySet) {
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::running_example_source());
  MachineOptions opt;
  opt.check = CheckMode::kIntegrity;
  const RunResult r = core::execute(cr.image, opt);
  ASSERT_TRUE(r.stats.completed) << r.stats.error_detail.render();

  const std::string json = render_stats_json(r.stats, opt);
  EXPECT_EQ(keys_of(json, 0, true), kTopLevelKeys) << json;
  EXPECT_EQ(object_keys(json, "options"), kOptionsKeys) << json;
  EXPECT_EQ(object_keys(json, "error"), kErrorKeys) << json;
  EXPECT_NE(json.find("\"check\": \"integrity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\": \"none\""), std::string::npos) << json;
}

TEST(StatsJsonSchema, FailedRunEmitsTheSameKeySetWithATypedError) {
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(lang::corpus::running_example_source());
  MachineOptions opt;
  opt.budget.max_cycles = 3;  // forces the cycle-cap failure
  const RunResult r = core::execute(cr.image, opt);
  ASSERT_FALSE(r.stats.completed);

  const std::string json = render_stats_json(r.stats, opt);
  EXPECT_EQ(keys_of(json, 0, true), kTopLevelKeys) << json;
  EXPECT_EQ(object_keys(json, "options"), kOptionsKeys) << json;
  EXPECT_EQ(object_keys(json, "error"), kErrorKeys) << json;
  EXPECT_NE(json.find("\"completed\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\": \"cycle-cap\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"check\": \"off\""), std::string::npos) << json;
}

/// The optimize stage's counters flow verbatim into `--stats-json`'s
/// pipeline object and into `--stage-stats`, so their names and order
/// are golden too. The fusion counters appear only at --opt=all,
/// keeping cleanup-only traces stable.
TEST(StatsJsonSchema, OptimizeStageCountersAreTheGoldenSet) {
  const std::vector<std::string> kCleanupKeys = {
      "removed", "switches-folded", "merges-collapsed", "dead",
      "unfireable", "const-folded", "switch-elim", "synch-narrowed",
      "iterations", "max-loop-depth"};
  const std::vector<std::string> kFusionKeys = {
      "chains-fused", "fused-ops", "fused-len-2", "fused-len-3",
      "fused-len-4", "fused-len-5", "fused-len-6", "fused-len-7",
      "fused-len-8plus"};

  const auto counters_with = [](dfg::OptLevel level) {
    auto t = translate::TranslateOptions::schema2_optimized();
    t.opt_level = level;
    const auto cr =
        core::Pipeline(core::PipelineOptions(t))
            .run(lang::corpus::running_example_source());
    std::vector<std::string> names;
    for (const auto& r : cr.trace.stages) {
      if (r.stage != translate::Stage::kOptimize) continue;
      for (const auto& [name, value] : r.counters) names.push_back(name);
    }
    return names;
  };

  EXPECT_EQ(counters_with(dfg::OptLevel::kCleanup), kCleanupKeys);

  std::vector<std::string> expected = kCleanupKeys;
  expected.insert(expected.end(), kFusionKeys.begin(), kFusionKeys.end());
  EXPECT_EQ(counters_with(dfg::OptLevel::kAll), expected);
}

/// The cache object (`--stats-json`'s "cache" member and the serve
/// responses' "cache" member) is parsed by the same downstream
/// consumers, so its key set is golden too.
TEST(StatsJsonSchema, CacheObjectEmitsTheGoldenKeySet) {
  const std::vector<std::string> kCacheKeys = {
      "disposition", "key", "hits", "disk_hits", "misses",
      "evictions", "disk_rejects", "entries", "blob_bytes"};
  core::CacheStats stats;
  stats.hits = 2;
  stats.misses = 1;
  stats.entries = 1;
  stats.blob_bytes = 4096;
  const std::string json = core::render_cache_json(
      stats, core::CacheDisposition::kHitMemory, 0xabcdef0123456789ull);
  EXPECT_EQ(keys_of(json, 0, true), kCacheKeys) << json;
  EXPECT_NE(json.find("\"disposition\": \"hit-memory\""), std::string::npos);
  // Keys render as fixed-width hex: they double as disk blob filenames.
  EXPECT_NE(json.find("\"key\": \"abcdef0123456789\""), std::string::npos);
}

TEST(StatsJsonSchema, CacheDispositionSlugsAreGolden) {
  EXPECT_STREQ(core::to_string(core::CacheDisposition::kMiss), "miss");
  EXPECT_STREQ(core::to_string(core::CacheDisposition::kHitMemory),
               "hit-memory");
  EXPECT_STREQ(core::to_string(core::CacheDisposition::kHitDisk),
               "hit-disk");
}

TEST(StatsJsonSchema, BudgetCodesHaveStableSlugs) {
  EXPECT_STREQ(code_slug(ErrorCode::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(code_slug(ErrorCode::kTokenBudget), "token-budget");
}

TEST(StatsJsonSchema, EveryIntegrityCodeHasAStableSlug) {
  EXPECT_STREQ(code_slug(ErrorCode::kIntegrityDoubleWrite),
               "integrity/double-write");
  EXPECT_STREQ(code_slug(ErrorCode::kIntegrityReadEmpty),
               "integrity/read-empty");
  EXPECT_STREQ(code_slug(ErrorCode::kIntegrityMemRace),
               "integrity/mem-race");
  EXPECT_STREQ(code_slug(ErrorCode::kIntegrityOrphanResponse),
               "integrity/orphan-response");
}

}  // namespace
}  // namespace ctdf::machine
