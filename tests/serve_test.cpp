// `ctdf serve` protocol coverage (serve/serve.hpp): request decoding,
// typed error taxonomy, cache dispositions across repeated requests,
// batch semantics (ordering, worker pools, per-item errors), and the
// golden response key sets downstream clients parse by name.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/deep_sources.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace ctdf::serve {
namespace {

JsonValue parse_response(const std::string& line) {
  std::string error;
  const auto doc = json_parse(line, &error);
  EXPECT_TRUE(doc.has_value()) << error << "\nin: " << line;
  return doc.value_or(JsonValue{});
}

std::vector<std::string> keys(const JsonValue& obj) {
  std::vector<std::string> out;
  for (const auto& [k, v] : obj.object) out.push_back(k);
  return out;
}

const char* kRunX = R"({"id": 1, "op": "run", "source": "var x;\n  x := 1 + 2;\n"})";

// The frozen response vocabulary. Serve clients (the CI smoke job,
// scripts, external callers) key on these exact names and orders;
// changing them is a protocol break that must update this test.
const std::vector<std::string> kProgramResponseKeys = {
    "id", "op", "ok", "cache", "content_hash", "stage_nanos",
    "exec_nanos", "total_nanos", "stats", "store", "error"};
const std::vector<std::string> kCacheKeys = {
    "disposition", "key", "hits", "disk_hits", "misses",
    "evictions", "disk_rejects", "entries", "blob_bytes"};
const std::vector<std::string> kShortErrorKeys = {"id", "op", "ok", "error"};
const std::vector<std::string> kErrorObjectKeys = {"kind", "message"};
const std::vector<std::string> kBatchResponseKeys = {
    "id", "op", "ok", "batch", "results", "error"};
const std::vector<std::string> kBatchObjectKeys = {"requests", "errors",
                                                   "cache_hits"};

TEST(Serve, RunRespondsWithTheGoldenKeySetAndTheStore) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(kRunX));
  EXPECT_EQ(keys(r), kProgramResponseKeys);
  EXPECT_EQ(keys(*r.find("cache")), kCacheKeys);
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("id")->number, 1.0);
  EXPECT_EQ(r.find("cache")->find("disposition")->string, "miss");
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
  EXPECT_TRUE(r.find("error")->is_null());
  // A miss ran the pipeline: stage timings are present and non-trivial.
  EXPECT_GT(r.find("stage_nanos")->find("total")->number, 0.0);
  EXPECT_EQ(r.find("content_hash")->string.size(), 16u);
}

TEST(Serve, SecondIdenticalRequestIsAMemoryHit) {
  Server server;
  (void)server.handle_line(kRunX);
  const JsonValue r = parse_response(server.handle_line(kRunX));
  const JsonValue* cache = r.find("cache");
  EXPECT_EQ(cache->find("disposition")->string, "hit-memory");
  EXPECT_EQ(cache->find("hits")->number, 1.0);
  EXPECT_EQ(cache->find("misses")->number, 1.0);
  // Nothing compiled: the stage object carries only the zero total.
  EXPECT_EQ(r.find("stage_nanos")->find("total")->number, 0.0);
  // Same bytes, same answer.
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
}

TEST(Serve, DifferentOptionsAreADifferentCacheEntry) {
  Server server;
  (void)server.handle_line(kRunX);
  const std::string with_opts =
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "options": ["--mem-elim", "--check=integrity"]})";
  const JsonValue r = parse_response(server.handle_line(with_opts));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("cache")->find("disposition")->string, "miss");
  EXPECT_EQ(r.find("cache")->find("entries")->number, 2.0);
  EXPECT_EQ(r.find("stats")->find("options")->find("check")->string,
            "integrity");
}

TEST(Serve, CompileOpSkipsExecution) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "compile", "source": "var x;\n  x := 1 + 2;\n"})"));
  EXPECT_EQ(keys(r), kProgramResponseKeys);
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_TRUE(r.find("stats")->is_null());
  EXPECT_TRUE(r.find("store")->is_null());
  EXPECT_EQ(r.find("exec_nanos")->number, 0.0);
}

TEST(Serve, PrintSelectsNamesAndUnknownNamesRenderNull) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "print": ["x", "nope"]})"));
  const JsonValue* store = r.find("store");
  EXPECT_EQ(store->find("x")->number, 3.0);
  EXPECT_TRUE(store->find("nope")->is_null());
}

TEST(Serve, ErrorTaxonomyIsTyped) {
  Server server;
  const auto error_kind = [&](const std::string& line) {
    const JsonValue r = parse_response(server.handle_line(line));
    EXPECT_EQ(keys(r), kShortErrorKeys) << line;
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(keys(*r.find("error")), kErrorObjectKeys) << line;
    return r.find("error")->find("kind")->string;
  };
  EXPECT_EQ(error_kind("{oops"), "protocol");
  EXPECT_EQ(error_kind(R"({"source": "var x;\n  x := 1;\n"})"), "protocol");
  EXPECT_EQ(error_kind(R"({"op": "vaporize"})"), "protocol");
  EXPECT_EQ(error_kind(R"({"op": "run"})"), "protocol");  // missing source
  EXPECT_EQ(error_kind(
                R"({"op": "run", "source": "var x;\n  x := 1;\n", "options": ["--no-such-flag"]})"),
            "options");
  EXPECT_EQ(error_kind(
                R"({"op": "run", "source": "var x;\n  x := 1;\n", "options": ["--check=quantum"]})"),
            "options");
  EXPECT_EQ(error_kind(R"({"op": "run", "source": "var x;\n  x := ;\n"})"),
            "compile");
}

TEST(Serve, MachineFailuresKeepTheFullResponseShape) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "options": ["--max-cycles=1"]})"));
  EXPECT_EQ(keys(r), kProgramResponseKeys);  // not the short error form
  EXPECT_FALSE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("error")->find("kind")->string, "machine");
  EXPECT_FALSE(r.find("stats")->is_null());  // diagnostics still attached
  EXPECT_TRUE(r.find("store")->is_null());
}

/// Compiles, but its machine throws: the store vector cannot be that
/// large (std::length_error, no allocation attempted).
const char* kHugeArrayRun =
    R"({"id": 1, "op": "run", "source": "var x;\narray a[4611686018427387904];\nx := 1;\n"})";

TEST(Serve, MachineExceptionIsATypedMachineError) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(kHugeArrayRun));
  EXPECT_EQ(keys(r), kProgramResponseKeys);
  EXPECT_FALSE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("error")->find("kind")->string, "machine");
  EXPECT_FALSE(r.find("error")->find("message")->string.empty());
  EXPECT_TRUE(r.find("stats")->is_null());  // the run never finished
  EXPECT_TRUE(r.find("store")->is_null());
  // Compiling the same source is fine; only running it throws.
  const JsonValue c = parse_response(server.handle_line(
      R"({"op": "compile", "source": "var x;\narray a[4611686018427387904];\nx := 1;\n"})"));
  EXPECT_TRUE(c.find("ok")->boolean);
  EXPECT_TRUE(parse_response(server.handle_line(kRunX)).find("ok")->boolean);
}

TEST(Serve, MachineExceptionInABatchItemFailsOnlyThatItem) {
  ServeOptions opt;
  opt.workers = 2;
  Server server(opt);
  const std::string batch =
      R"({"op": "run-batch", "requests": [)"
      R"({"id": 1, "source": "var x;\narray a[4611686018427387904];\nx := 1;\n"},)"
      R"({"id": 2, "source": "var x;\n  x := 1 + 2;\n"}]})";
  const JsonValue r = parse_response(server.handle_line(batch));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("batch")->find("errors")->number, 1.0);
  const std::vector<JsonValue>& results = r.find("results")->array;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(keys(results[0]), kProgramResponseKeys);
  EXPECT_EQ(results[0].find("error")->find("kind")->string, "machine");
  EXPECT_EQ(results[1].find("store")->find("x")->number, 3.0);
}

TEST(Serve, StrayClosingBraceIsACompileError) {
  Server server;
  for (const char* line :
       {R"({"op": "run", "source": "}"})",
        R"({"op": "run", "source": "var x;\n}\n"})",
        R"({"op": "run", "source": "var x;\nif x then {}\n"})"}) {
    const JsonValue r = parse_response(server.handle_line(line));
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(r.find("error")->find("kind")->string, "compile") << line;
    EXPECT_TRUE(parse_response(server.handle_line(kRunX)).find("ok")->boolean)
        << "after " << line;
  }
}

TEST(Serve, TooDeepSourcesAreCompileErrors) {
  // Each of these overflowed the server's stack before the parser's
  // depth bound: the request went unanswered and the server died.
  Server server;
  for (const auto& [name, src] : testing::stack_overflow_reproducers()) {
    const JsonValue r = parse_response(server.handle_line(
        R"({"op": "compile", "source": ")" + src + R"("})"));
    EXPECT_FALSE(r.find("ok")->boolean) << name;
    EXPECT_EQ(r.find("error")->find("kind")->string, "compile") << name;
    EXPECT_TRUE(parse_response(server.handle_line(kRunX)).find("ok")->boolean)
        << "after " << name;
  }
  const JsonValue at_limit = parse_response(server.handle_line(
      R"({"op": "run", "source": ")" + testing::nested_parens(1000) + R"("})"));
  EXPECT_TRUE(at_limit.find("ok")->boolean);
  EXPECT_EQ(at_limit.find("store")->find("x")->number, 1.0);
}

TEST(Serve, RunBatchKeepsOrderSharesTheCacheAndCountsErrors) {
  Server server;
  const std::string batch = R"({"id": "b1", "op": "run-batch", "requests": [)"
                            R"({"id": 10, "source": "var x;\n  x := 1 + 2;\n"},)"
                            R"({"id": 11, "source": "var x;\n  x := 1 + 2;\n"},)"
                            R"({"id": 12, "source": "var y;\n  y := ;\n"},)"
                            R"({"id": 13, "op": "run-batch"}]})";
  const JsonValue r = parse_response(server.handle_line(batch));
  EXPECT_EQ(keys(r), kBatchResponseKeys);
  EXPECT_TRUE(r.find("ok")->boolean);
  const JsonValue* b = r.find("batch");
  EXPECT_EQ(keys(*b), kBatchObjectKeys);
  EXPECT_EQ(b->find("requests")->number, 4.0);
  EXPECT_EQ(b->find("errors")->number, 2.0);      // compile + nested batch
  EXPECT_EQ(b->find("cache_hits")->number, 1.0);  // the repeated source

  const std::vector<JsonValue>& results = r.find("results")->array;
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].find("id")->number, 10.0);
  EXPECT_EQ(results[1].find("id")->number, 11.0);
  EXPECT_EQ(results[2].find("id")->number, 12.0);
  EXPECT_EQ(results[3].find("id")->number, 13.0);
  // Item op defaults to "run" inside a batch.
  EXPECT_EQ(results[0].find("op")->string, "run");
  EXPECT_EQ(results[1].find("cache")->find("disposition")->string,
            "hit-memory");
  EXPECT_EQ(results[2].find("error")->find("kind")->string, "compile");
  EXPECT_EQ(results[3].find("error")->find("kind")->string, "protocol");
}

TEST(Serve, BatchLevelOptionsAreEachItemsBaseline) {
  Server server;
  const std::string batch =
      R"({"op": "run-batch", "options": ["--check=integrity"], "requests": [)"
      R"({"source": "var x;\n  x := 1 + 2;\n"},)"
      R"({"source": "var x;\n  x := 1 + 2;\n", "options": ["--check=off"]}]})";
  const JsonValue r = parse_response(server.handle_line(batch));
  const std::vector<JsonValue>& results = r.find("results")->array;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("stats")->find("options")->find("check")->string,
            "integrity");
  EXPECT_EQ(results[1].find("stats")->find("options")->find("check")->string,
            "off");
}

TEST(Serve, WorkerPoolProducesTheSameOrderedResults) {
  ServeOptions opt;
  opt.workers = 4;
  Server server(opt);
  std::string batch = R"({"op": "run-batch", "requests": [)";
  for (int i = 0; i < 8; ++i) {
    if (i) batch += ", ";
    batch += R"({"id": )" + std::to_string(i) +
             R"(, "source": "var x;\n  x := )" + std::to_string(i) +
             R"( + 1;\n"})";
  }
  batch += "]}";
  const JsonValue r = parse_response(server.handle_line(batch));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("batch")->find("errors")->number, 0.0);
  const std::vector<JsonValue>& results = r.find("results")->array;
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i].find("id")->number, i) << i;
    EXPECT_EQ(results[i].find("store")->find("x")->number, i + 1.0) << i;
  }
}

TEST(Serve, IdenticalItemsOnAWorkerPoolCompileOnce) {
  ServeOptions opt;
  opt.workers = 4;
  Server server(opt);
  std::string batch = R"({"op": "run-batch", "requests": [)";
  for (int i = 0; i < 8; ++i)
    batch += std::string(i ? ", " : "") +
             R"({"source": "var x;\n  x := 1 + 2;\n"})";
  batch += "]}";
  const JsonValue r = parse_response(server.handle_line(batch));
  // Items racing on one key wait for its single compile: one miss,
  // seven hits, however the workers interleave.
  EXPECT_EQ(r.find("batch")->find("cache_hits")->number, 7.0);
  EXPECT_EQ(r.find("batch")->find("errors")->number, 0.0);
}

TEST(Serve, ShutdownAcknowledgesAndStopsTheLoop) {
  Server server;
  bool shutdown = false;
  const JsonValue r = parse_response(
      server.handle_line(R"({"id": 99, "op": "shutdown"})", &shutdown));
  EXPECT_TRUE(shutdown);
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("op")->string, "shutdown");

  // Errors must NOT set the flag.
  (void)server.handle_line("{oops", &shutdown);
  EXPECT_FALSE(shutdown);
}

// ---- overload-safe serving -------------------------------------------

const std::vector<std::string> kStatsResponseKeys = {"id", "op", "ok",
                                                     "serve", "error"};
const std::vector<std::string> kServeObjectKeys = {
    "workers", "max_queue", "accepted", "completed", "rejected_overload",
    "rejected_draining", "slow_requests", "client_disconnects",
    "queue_depth", "in_flight", "per_worker"};
const std::vector<std::string> kOverloadedErrorKeys = {"kind", "message",
                                                       "retry_after_ms"};

TEST(Serve, StatsOpEmitsTheGoldenKeySetAndCounts) {
  Server server;
  (void)server.handle_line(kRunX);
  const JsonValue r =
      parse_response(server.handle_line(R"({"id": 7, "op": "stats"})"));
  EXPECT_EQ(keys(r), kStatsResponseKeys);
  EXPECT_TRUE(r.find("ok")->boolean);
  const JsonValue* s = r.find("serve");
  EXPECT_EQ(keys(*s), kServeObjectKeys);
  // The stats request itself was accepted before rendering; the run
  // before it has completed.
  EXPECT_EQ(s->find("accepted")->number, 2.0);
  EXPECT_EQ(s->find("completed")->number, 1.0);
  EXPECT_EQ(s->find("rejected_overload")->number, 0.0);
  EXPECT_EQ(s->find("per_worker")->array.size(), 1u);  // default workers=1
}

TEST(Serve, RequestDeadlineZeroIsATypedMachineError) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "deadline_ms": 0})"));
  EXPECT_EQ(keys(r), kProgramResponseKeys);  // full shape, not short form
  EXPECT_FALSE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("error")->find("kind")->string, "machine");
  EXPECT_EQ(r.find("stats")->find("error")->find("code")->string,
            "deadline-exceeded");
  EXPECT_TRUE(r.find("store")->is_null());
}

TEST(Serve, GenerousRequestDeadlineChangesNothing) {
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "deadline_ms": 600000})"));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
}

TEST(Serve, BadDeadlineIsAProtocolError) {
  Server server;
  for (const char* line :
       {R"({"op": "run", "source": "x", "deadline_ms": -5})",
        R"({"op": "run", "source": "x", "deadline_ms": 1.5})",
        R"({"op": "run", "source": "x", "deadline_ms": "soon"})"}) {
    const JsonValue r = parse_response(server.handle_line(line));
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(r.find("error")->find("kind")->string, "protocol") << line;
  }
}

TEST(Serve, BatchItemsInheritTheBatchDeadline) {
  Server server;
  const std::string batch =
      R"({"op": "run-batch", "deadline_ms": 0, "requests": [)"
      R"({"id": 1, "source": "var x;\n  x := 1 + 2;\n"},)"
      R"({"id": 2, "source": "var x;\n  x := 1 + 2;\n", "deadline_ms": 600000}]})";
  const JsonValue r = parse_response(server.handle_line(batch));
  const std::vector<JsonValue>& results = r.find("results")->array;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].find("ok")->boolean);  // inherited 0 ms budget
  EXPECT_EQ(results[0].find("stats")->find("error")->find("code")->string,
            "deadline-exceeded");
  EXPECT_TRUE(results[1].find("ok")->boolean);  // item override wins
}

#ifndef _WIN32

/// Never terminates on its own; only a budget or deadline stops it.
const char* kSpinWithDeadline =
    R"({"id": 0, "op": "run", "source": "var x, i;\nl:\n  x := x + 1;\n  if i < 1 then goto l else goto end;\n", "deadline_ms": 400})";

/// Drives serve_pipe over real fds: writes every request, closes the
/// input, joins the server, and returns the response lines. A nonzero
/// `first_stagger_ms` pauses after the first request so a worker has
/// demonstrably started it before the rest (and EOF) arrive;
/// `exit_code` receives serve_pipe's return value.
std::vector<std::string> pipe_roundtrip(Server& server,
                                        const std::vector<std::string>& reqs,
                                        int first_stagger_ms = 0,
                                        int* exit_code = nullptr) {
  int in_p[2] = {-1, -1};
  int out_p[2] = {-1, -1};
  EXPECT_EQ(::pipe(in_p), 0);
  EXPECT_EQ(::pipe(out_p), 0);
  std::thread t([&] {
    const int rc = server.serve_pipe(in_p[0], out_p[1]);
    if (exit_code) *exit_code = rc;
  });
  const auto send = [&](const std::string& payload) {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t w =
          ::write(in_p[1], payload.data() + off, payload.size() - off);
      EXPECT_GT(w, 0) << "write to serve_pipe failed";
      if (w <= 0) return;
      off += static_cast<std::size_t>(w);
    }
  };
  std::string all;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i == 1 && first_stagger_ms > 0) {
      send(all);
      all.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(first_stagger_ms));
    }
    all += reqs[i] + "\n";
  }
  send(all);
  ::close(in_p[1]);
  t.join();
  ::close(out_p[1]);  // our copy of the write end: EOF for the read below
  std::string buf;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(out_p[0], chunk, sizeof chunk)) > 0)
    buf.append(chunk, static_cast<std::size_t>(n));
  ::close(in_p[0]);
  ::close(out_p[0]);
  std::vector<std::string> lines;
  std::istringstream is(buf);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

TEST(ServePump, FullQueueRejectsWithTypedOverloadAndRetryHint) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_queue = 1;
  opt.drain_ms = 10'000;  // EOF drain must still run the queued request
  Server server(opt);
  std::vector<std::string> reqs = {kSpinWithDeadline};
  for (int i = 1; i <= 30; ++i)
    reqs.push_back(R"({"id": )" + std::to_string(i) +
                   R"(, "op": "run", "source": "var x;\n  x := 1 + 2;\n"})");
  // Stagger so the worker is pinned on the spinner (queue empty) when
  // the flood arrives: one slot admits, the rest are turned away.
  const std::vector<std::string> lines =
      pipe_roundtrip(server, reqs, /*first_stagger_ms=*/100);
  // Exactly one response per request, in request order.
  ASSERT_EQ(lines.size(), reqs.size());
  const JsonValue spin = parse_response(lines[0]);
  EXPECT_FALSE(spin.find("ok")->boolean);
  EXPECT_EQ(spin.find("error")->find("kind")->string, "machine");

  std::size_t overloaded = 0;
  std::size_t served = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue r = parse_response(lines[i]);
    const JsonValue* err = r.find("error");
    if (!err->is_null() && err->find("kind")->string == "overloaded") {
      ++overloaded;
      EXPECT_EQ(keys(*err), kOverloadedErrorKeys) << lines[i];
      EXPECT_GE(err->find("retry_after_ms")->number, 1.0);
      EXPECT_TRUE(r.find("id")->is_null());  // correlate by order
    } else {
      EXPECT_TRUE(r.find("ok")->boolean) << lines[i];
      ++served;
    }
  }
  // The single worker was pinned on the spinner: almost everything
  // behind the one queue slot was turned away, but whatever was
  // admitted ran to completion.
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(served, 1u);
  EXPECT_EQ(server.stats().rejected_overload.load(), overloaded);
}

TEST(ServePump, ClosedDrainWindowRejectsQueuedRequestsAsDraining) {
  ServeOptions opt;
  opt.workers = 1;
  opt.drain_ms = 0;  // the window closes the instant draining starts
  Server server(opt);
  const std::vector<std::string> lines = pipe_roundtrip(
      server,
      {kSpinWithDeadline,
       R"({"id": 1, "op": "run", "source": "var x;\n  x := 1 + 2;\n"})",
       R"({"id": 2, "op": "run", "source": "var x;\n  x := 1 + 2;\n"})"},
      /*first_stagger_ms=*/100);
  // The spinner was in flight before EOF (staggered write), so it
  // finishes with its typed machine error; the queued two fall outside
  // the zero-width drain window but are still answered.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(parse_response(lines[0]).find("error")->find("kind")->string,
            "machine");
  for (std::size_t i = 1; i < 3; ++i) {
    const JsonValue r = parse_response(lines[i]);
    EXPECT_FALSE(r.find("ok")->boolean);
    EXPECT_EQ(r.find("error")->find("kind")->string, "draining") << lines[i];
    EXPECT_EQ(r.find("id")->number, static_cast<double>(i));  // id echoed
  }
  EXPECT_EQ(server.stats().rejected_draining.load(), 2u);
}

TEST(ServePump, ShutdownOpDrainsAndExitsThePipeLoop) {
  ServeOptions opt;
  opt.workers = 2;
  Server server(opt);
  const std::vector<std::string> lines = pipe_roundtrip(
      server, {kRunX, R"({"id": 9, "op": "shutdown"})"});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(parse_response(lines[0]).find("ok")->boolean);
  const JsonValue ack = parse_response(lines[1]);
  EXPECT_TRUE(ack.find("ok")->boolean);
  EXPECT_EQ(ack.find("op")->string, "shutdown");
}

TEST(ServePump, MachineExceptionLeavesThePumpServing) {
  ServeOptions opt;
  opt.workers = 2;
  Server server(opt);
  int exit_code = -1;
  const std::vector<std::string> lines =
      pipe_roundtrip(server, {kHugeArrayRun, kRunX}, 0, &exit_code);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(parse_response(lines[0]).find("error")->find("kind")->string,
            "machine");
  EXPECT_TRUE(parse_response(lines[1]).find("ok")->boolean);
  EXPECT_EQ(exit_code, 0);
}

TEST(ServePump, OneRequestThenEofIsAlwaysServed) {
  // EOF opens the drain window while a worker may already be popping
  // the one queued request: the worker must see the window's end, never
  // a drain flag whose deadline is not yet published.
  for (int session = 0; session < 2000; ++session) {
    ServeOptions opt;
    opt.workers = 4;
    Server server(opt);
    const std::vector<std::string> lines = pipe_roundtrip(server, {kRunX});
    ASSERT_EQ(lines.size(), 1u) << "session " << session;
    ASSERT_TRUE(parse_response(lines[0]).find("ok")->boolean)
        << "session " << session << ": " << lines[0];
  }
}

int connect_unix(const std::string& path) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::string recv_line(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

TEST(ServePump, SocketClientDisconnectMidBatchDoesNotKillTheServer) {
  ServeOptions opt;
  opt.workers = 2;
  Server server(opt);
  const std::string path =
      ::testing::TempDir() + "/ctdf_serve_disc_" +
      std::to_string(static_cast<long>(::getpid())) + ".sock";
  std::thread t([&] { (void)server.serve_socket(path); });

  // Client 1: a batch of real work, then hang up without reading the
  // response. The server's write must fail quietly (EPIPE is ignored),
  // be counted, and leave the listener accepting.
  {
    const int c1 = connect_unix(path);
    ASSERT_GE(c1, 0);
    std::string batch = R"({"op": "run-batch", "requests": [)";
    for (int i = 0; i < 6; ++i) {
      if (i) batch += ", ";
      batch += R"({"id": )" + std::to_string(i) +
               R"(, "source": "var x;\n  x := )" + std::to_string(i) +
               R"( + 1;\n"})";
    }
    batch += "]}\n";
    ASSERT_TRUE(send_all(c1, batch));
    ::close(c1);  // gone before the response exists
  }

  // Client 2: the server must still answer.
  const int c2 = connect_unix(path);
  ASSERT_GE(c2, 0);
  ASSERT_TRUE(send_all(c2, std::string(kRunX) + "\n"));
  const JsonValue r = parse_response(recv_line(c2));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);

  // The hangup was observed and counted (the batch may still be
  // computing: wait for the failed write, bounded).
  for (int i = 0; i < 200 && server.stats().client_disconnects.load() == 0;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(server.stats().client_disconnects.load(), 1u);

  ASSERT_TRUE(send_all(c2, "{\"op\": \"shutdown\"}\n"));
  const JsonValue ack = parse_response(recv_line(c2));
  EXPECT_TRUE(ack.find("ok")->boolean);
  ::close(c2);
  t.join();
  // Clean exit unlinks the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

#endif  // !_WIN32

TEST(Serve, StreamLoopEmitsOneLinePerRequestAndStopsOnShutdown) {
  Server server;
  std::istringstream in(std::string(kRunX) + "\n\n" +  // blank lines skipped
                        kRunX + "\n" +
                        R"({"op": "shutdown"})" + "\n" +
                        kRunX + "\n");  // never reached
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    const JsonValue r = parse_response(line);  // every line parses clean
    EXPECT_TRUE(r.find("ok")->boolean);
  }
  EXPECT_EQ(count, 3u);  // run, run, shutdown ack
}

}  // namespace
}  // namespace ctdf::serve
