// `ctdf serve` protocol coverage (serve/serve.hpp): request decoding,
// typed error taxonomy, cache dispositions across repeated requests,
// the request pump (ordering on a worker pool, overload, drain,
// disconnects), and the golden response key sets downstream clients
// parse by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machine/blob.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/deep_sources.hpp"
#include "support/forged_images.hpp"

#ifndef _WIN32
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// The address-space cap of RefusedWorkerThreadsLeaveTheServerServing
// cannot hold under ASan or TSan, which reserve terabytes of shadow.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CTDF_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CTDF_SHADOW_MEMORY 1
#endif
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

TEST(Serve, OutOfRangeLatenciesAreOptionsErrorsAndServingGoesOn) {
  // A zero memory latency would fail the engine's assertion and take
  // the whole server down; a latency past the bound would outgrow the
  // calendar wheel. Both are rejected while decoding the options.
  Server server;
  for (const char* line : {
           R"({"id": 1, "op": "run", "options": ["--mem-latency=0"], "source": "var x;\n x := 1 + 2;\n"})",
           R"({"id": 2, "op": "run", "options": ["--processors=2", "--network-latency=65537"], "source": "var x;\n x := 1 + 2;\n"})"}) {
    const JsonValue r = parse_response(server.handle_line(line));
    EXPECT_EQ(keys(r), kShortErrorKeys) << line;
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(r.find("error")->find("kind")->string, "options") << line;
  }
  const JsonValue r = parse_response(server.handle_line(kRunX));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
}

TEST(Serve, OutOfRangeProcessorCountIsAnOptionsErrorAndServingGoesOn) {
  // A run keeps per-PE state, so an unbounded PE count would let one
  // request ask for gigabytes. Past kMaxProcessors it is rejected while
  // decoding the options; the bound itself still runs.
  Server server;
  for (const char* line : {
           R"({"id": 1, "op": "run", "options": ["--processors=65537"], "source": "var x;\n x := 1 + 2;\n"})",
           R"({"id": 2, "op": "run", "options": ["--processors=4000000000"], "source": "var x;\n x := 1 + 2;\n"})"}) {
    const JsonValue r = parse_response(server.handle_line(line));
    EXPECT_EQ(keys(r), kShortErrorKeys) << line;
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(r.find("error")->find("kind")->string, "options") << line;
    EXPECT_NE(r.find("error")->find("message")->string.find("must be in [0, 65536]"),
              std::string::npos)
        << line;
  }
  const JsonValue widest = parse_response(server.handle_line(
      R"({"id": 3, "op": "run", "options": ["--processors=65536"], "source": "var x;\n x := 1 + 2;\n"})"));
  EXPECT_TRUE(widest.find("ok")->boolean);
  EXPECT_EQ(widest.find("store")->find("x")->number, 3.0);
  const JsonValue r = parse_response(server.handle_line(kRunX));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
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

TEST(Serve, CompileErrorsPointIntoTheRequestSource) {
  // The parser reads the request's own tokens, so the position is the
  // source's, not that of a copy re-rendered one statement per line.
  Server server;
  const JsonValue r = parse_response(server.handle_line(
      R"({"op": "compile", "source": "var x; x := 1; x := (;"})"));
  EXPECT_FALSE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("error")->find("kind")->string, "compile");
  const std::string& message = r.find("error")->find("message")->string;
  EXPECT_EQ(message.rfind("1:22: error: ", 0), 0u) << message;
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

/// Runs kRunX once on a fresh disk cache in `opt.cache.dir` and returns
/// the path of the one blob it wrote, so a test can forge what kRunX
/// loads.
std::string seed_disk_blob(const ServeOptions& opt) {
  std::filesystem::remove_all(opt.cache.dir);
  {
    Server seed(opt);
    EXPECT_TRUE(parse_response(seed.handle_line(kRunX)).find("ok")->boolean);
  }
  std::string path;
  for (const auto& e : std::filesystem::directory_iterator(opt.cache.dir))
    path = e.path();
  return path;
}

TEST(Serve, ForgedDiskBlobIsADiskRejectNotACrash) {
  // A hash-valid blob whose I-structure region runs far past memory,
  // as a buggy or hostile writer could leave in the cache directory:
  // the decoder rejects it, and the request recompiles and answers.
  ServeOptions opt;
  opt.cache.dir = ::testing::TempDir() + "/serve_forged_blob";
  const std::string path = seed_disk_blob(opt);
  ASSERT_FALSE(path.empty());
  machine::BlobReadResult read = machine::read_blob_file(path);
  ASSERT_TRUE(read.ok()) << read.message;
  read.image.istructures = {{0, 4000000000u}};
  ASSERT_TRUE(machine::write_blob_file(path, machine::serialize(read.image)));

  Server server(opt);
  const std::string line = server.handle_line(kRunX);
  const JsonValue r = parse_response(line);
  ASSERT_TRUE(r.find("ok")->boolean) << line;
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);
  EXPECT_EQ(r.find("cache")->find("disposition")->string, "miss");
  EXPECT_EQ(r.find("cache")->find("disk_rejects")->number, 1.0);
}

TEST(Serve, DiskBlobWithALoopExitOutsideALoopIsAMachineError) {
  // The decoder accepts this hash-valid blob: its tables are
  // consistent, only its loop exit fires in no loop. The request fails
  // with a typed machine error and the server goes on serving.
  ServeOptions opt;
  opt.cache.dir = ::testing::TempDir() + "/serve_loop_exit_blob";
  const std::string path = seed_disk_blob(opt);
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(machine::write_blob_file(
      path, machine::serialize(testing::loop_exit_outside_loop_image())));

  Server server(opt);
  const std::string line = server.handle_line(kRunX);
  const JsonValue r = parse_response(line);
  EXPECT_EQ(keys(r), kProgramResponseKeys);
  EXPECT_FALSE(r.find("ok")->boolean) << line;
  EXPECT_EQ(r.find("cache")->find("disposition")->string, "hit-disk");
  EXPECT_EQ(r.find("error")->find("kind")->string, "machine");
  EXPECT_EQ(r.find("stats")->find("error")->find("code")->string,
            "loop-exit-outside-loop");
  const JsonValue next = parse_response(server.handle_line(
      R"({"op": "run", "source": "var y;\n  y := 2;\n"})"));
  EXPECT_TRUE(next.find("ok")->boolean);
  EXPECT_EQ(next.find("store")->find("y")->number, 2.0);
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

TEST(Serve, RequestsWithoutADeadlineTakeTheServersDefault) {
  ServeOptions opt;
  opt.default_deadline_ms = 0;
  Server server(opt);
  const JsonValue inherited = parse_response(server.handle_line(kRunX));
  EXPECT_FALSE(inherited.find("ok")->boolean);
  EXPECT_EQ(inherited.find("stats")->find("error")->find("code")->string,
            "deadline-exceeded");
  const JsonValue own = parse_response(server.handle_line(
      R"({"op": "run", "source": "var x;\n  x := 1 + 2;\n", "deadline_ms": 600000})"));
  EXPECT_TRUE(own.find("ok")->boolean);  // the request's own value wins
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
  // The empty request is a blank line: skipped, not answered.
  const std::vector<std::string> lines = pipe_roundtrip(
      server, {kRunX, "", R"({"id": 9, "op": "shutdown"})"});
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

TEST(ServePump, PipelinedRequestsOnAWorkerPoolAnswerInOrder) {
  ServeOptions opt;
  opt.workers = 4;
  Server server(opt);
  std::vector<std::string> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back(R"({"id": )" + std::to_string(i) +
                   R"(, "op": "run", "source": "var x;\n  x := )" +
                   std::to_string(i) + R"( + 1;\n"})");
  const std::vector<std::string> lines = pipe_roundtrip(server, reqs);
  ASSERT_EQ(lines.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const JsonValue r = parse_response(lines[i]);
    EXPECT_TRUE(r.find("ok")->boolean) << lines[i];
    EXPECT_EQ(r.find("id")->number, i) << i;
    EXPECT_EQ(r.find("store")->find("x")->number, i + 1.0) << i;
  }
}

TEST(ServePump, IdenticalPipelinedRequestsCompileOnce) {
  ServeOptions opt;
  opt.workers = 4;
  Server server(opt);
  const std::vector<std::string> lines =
      pipe_roundtrip(server, std::vector<std::string>(8, kRunX));
  ASSERT_EQ(lines.size(), 8u);
  for (const std::string& line : lines)
    EXPECT_TRUE(parse_response(line).find("ok")->boolean) << line;
  // Requests racing on one key wait for its single compile: one miss,
  // seven hits, however the workers interleave.
  EXPECT_EQ(server.cache().stats().misses, 1u);
  EXPECT_EQ(server.cache().stats().hits, 7u);
}

TEST(ServePump, RunBatchIsAnUnknownOp) {
  const std::string batch =
      R"({"id": "b", "op": "run-batch", "requests": [{"source": "var x;\n  x := 1 + 2;\n"}]})";
  Server server;
  const std::vector<std::string> piped = pipe_roundtrip(server, {batch});
  ASSERT_EQ(piped.size(), 1u);
  for (const std::string& line : {server.handle_line(batch), piped[0]}) {
    const JsonValue r = parse_response(line);
    EXPECT_EQ(keys(r), kShortErrorKeys) << line;
    EXPECT_EQ(r.find("op")->string, "run-batch");
    EXPECT_EQ(r.find("error")->find("kind")->string, "protocol");
    EXPECT_EQ(r.find("error")->find("message")->string,
              "unknown op: run-batch");
  }
  EXPECT_EQ(server.cache().stats().misses, 0u);  // nothing compiled
}

TEST(ServePump, RemovedOptionSpellingsAreOneOptionsErrorEach) {
  // The optimizer takes one level; pass lists, --post-opt, --fuse-limit
  // and --trace are gone. Each is exactly one typed options error, and
  // the requests around them are served.
  const auto run_with = [](const std::string& flag) {
    return R"({"op": "run", "options": [")" + flag +
           R"("], "source": "var x;\n  x := 1 + 2;\n"})";
  };
  const std::vector<std::pair<std::string, std::string>> gone = {
      {"--trace", "unknown option: --trace"},
      {"--opt=dce,fuse", "bad value: --opt=dce,fuse"},
      {"--opt=dce", "bad value: --opt=dce"},
      {"--post-opt", "unknown option: --post-opt"},
      {"--fuse-limit=4", "unknown option: --fuse-limit=4"}};
  std::vector<std::string> reqs;
  for (const auto& [flag, message] : gone) {
    reqs.push_back(run_with(flag));
    reqs.push_back(kRunX);
  }
  reqs.push_back(run_with("--opt=all"));
  Server server;
  const std::vector<std::string> lines = pipe_roundtrip(server, reqs);
  ASSERT_EQ(lines.size(), reqs.size());
  for (std::size_t i = 0; i < gone.size(); ++i) {
    const JsonValue r = parse_response(lines[2 * i]);
    EXPECT_EQ(keys(r), kShortErrorKeys) << lines[2 * i];
    EXPECT_EQ(r.find("error")->find("kind")->string, "options");
    EXPECT_EQ(r.find("error")->find("message")->string, gone[i].second);
    const JsonValue next = parse_response(lines[2 * i + 1]);
    EXPECT_TRUE(next.find("ok")->boolean) << lines[2 * i + 1];
    EXPECT_EQ(next.find("store")->find("x")->number, 3.0);
  }
  const JsonValue all = parse_response(lines.back());
  EXPECT_TRUE(all.find("ok")->boolean) << lines.back();
  EXPECT_EQ(all.find("store")->find("x")->number, 3.0);
}

#ifdef __linux__  // /proc/self/statm and pthread_setattr_default_np
/// A forked child's run of serve_pipe on four workers, with the child's
/// address space capped at its size plus `stacks` worker stacks plus
/// half a stack of heap.
struct CappedServe {
  int status = 0;                  ///< the child's wait status
  std::vector<std::string> lines;  ///< its responses
  std::string err;                 ///< its stderr
};

CappedServe serve_with_room_for(int stacks,
                                const std::vector<std::string>& reqs) {
  int out_p[2];
  int err_p[2];
  EXPECT_EQ(::pipe(out_p), 0);
  EXPECT_EQ(::pipe(err_p), 0);
  const pid_t pid = ::fork();
  if (pid == 0) try {
    ::close(out_p[0]);
    ::close(err_p[0]);
    ::dup2(err_p[1], 2);
    // The requests wait in a pipe, so the child needs no writer thread.
    int in_p[2];
    if (::pipe(in_p) != 0) ::_exit(100);
    std::string payload;
    for (const std::string& r : reqs) payload += r + "\n";
    if (::write(in_p[1], payload.data(), payload.size()) !=
        static_cast<ssize_t>(payload.size()))
      ::_exit(101);
    ::close(in_p[1]);
    ServeOptions opt;
    opt.workers = 4;
    Server server(opt);
    // Worker stacks 8x the default: glibc reuses a cached stack only if
    // it is at least as large, so every worker needs a fresh mapping,
    // whatever threads this process ran before the fork.
    pthread_attr_t attr;
    std::size_t stack = 0;
    if (::pthread_getattr_default_np(&attr) != 0 ||
        ::pthread_attr_getstacksize(&attr, &stack) != 0 ||
        ::pthread_attr_setstacksize(&attr, stack *= 8) != 0 ||
        ::pthread_setattr_default_np(&attr) != 0)
      ::_exit(102);
    ::pthread_attr_destroy(&attr);
    unsigned long pages = 0;
    std::FILE* statm = std::fopen("/proc/self/statm", "r");
    if (!statm || std::fscanf(statm, "%lu", &pages) != 1) ::_exit(103);
    std::fclose(statm);
    rlimit lim{};
    ::getrlimit(RLIMIT_AS, &lim);
    lim.rlim_cur = pages * static_cast<unsigned long>(::sysconf(_SC_PAGESIZE)) +
                   static_cast<unsigned long>(stacks) * stack + stack / 2;
    if (::setrlimit(RLIMIT_AS, &lim) != 0) ::_exit(104);
    ::_exit(server.serve_pipe(in_p[0], out_p[1]));
  } catch (...) {
    ::_exit(105);  // never return into the test runner's copy
  }
  ::close(out_p[1]);
  ::close(err_p[1]);
  CappedServe out;
  const auto slurp = [](int fd) {
    std::string buf;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof chunk)) > 0)
      buf.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    return buf;
  };
  std::istringstream is(slurp(out_p[0]));
  for (std::string line; std::getline(is, line);) out.lines.push_back(line);
  out.err = slurp(err_p[0]);
  EXPECT_GT(pid, 0) << "fork failed";
  EXPECT_EQ(::waitpid(pid, &out.status, 0), pid);
  return out;
}

TEST(ServePump, RefusedWorkerThreadsLeaveTheServerServing) {
#ifdef CTDF_SHADOW_MEMORY
  GTEST_SKIP() << "a sanitizer's shadow memory defeats the address cap";
#endif
  std::vector<std::string> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back(R"({"id": )" + std::to_string(i) +
                   R"(, "op": "run", "source": "var x;\n  x := )" +
                   std::to_string(i) + R"( * 2;\n"})");
  reqs.push_back(R"({"id": 6, "op": "stats"})");

  // Room for one worker: the other three are refused, and the one
  // answers every request.
  const CappedServe one = serve_with_room_for(1, reqs);
  ASSERT_FALSE(WIFSIGNALED(one.status))
      << "killed by signal " << WTERMSIG(one.status) << "\n" << one.err;
  ASSERT_TRUE(WIFEXITED(one.status));
  EXPECT_EQ(WEXITSTATUS(one.status), 0) << one.err;
  EXPECT_EQ(one.err.rfind("serve: started 1 of 4 worker threads (", 0), 0u)
      << one.err;
  EXPECT_EQ(std::count(one.err.begin(), one.err.end(), '\n'), 1) << one.err;
  ASSERT_EQ(one.lines.size(), reqs.size()) << one.err;
  for (int i = 0; i < 6; ++i) {
    const JsonValue r = parse_response(one.lines[i]);
    EXPECT_TRUE(r.find("ok")->boolean) << one.lines[i];
    EXPECT_EQ(r.find("id")->number, i);
    EXPECT_EQ(r.find("store")->find("x")->number, 2.0 * i);
  }
  // The stats op counts the worker that started. A server with no
  // pump reports the workers it was configured with.
  const JsonValue started = parse_response(one.lines[6]);
  ASSERT_NE(started.find("serve"), nullptr) << one.lines[6];
  EXPECT_EQ(started.find("serve")->find("workers")->number, 1.0);
  EXPECT_EQ(started.find("serve")->find("per_worker")->array.size(), 1u);
  ServeOptions four;
  four.workers = 4;
  Server unpumped(four);
  const JsonValue configured =
      parse_response(unpumped.handle_line(R"({"op": "stats"})"));
  EXPECT_EQ(configured.find("serve")->find("workers")->number, 4.0);
  EXPECT_EQ(configured.find("serve")->find("per_worker")->array.size(), 4u);

  // Room for none: serve_pipe returns 2 without reading.
  const CappedServe none = serve_with_room_for(0, reqs);
  ASSERT_FALSE(WIFSIGNALED(none.status))
      << "killed by signal " << WTERMSIG(none.status) << "\n" << none.err;
  ASSERT_TRUE(WIFEXITED(none.status));
  EXPECT_EQ(WEXITSTATUS(none.status), 2) << none.err;
  EXPECT_EQ(none.err.rfind("serve: started 0 of 4 worker threads (", 0), 0u)
      << none.err;
  EXPECT_NE(none.err.find("); no request read\n"), std::string::npos)
      << none.err;
  EXPECT_TRUE(none.lines.empty());
}
#endif  // __linux__

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

TEST(ServePump, SocketClientDisconnectMidStreamDoesNotKillTheServer) {
  ServeOptions opt;
  opt.workers = 2;
  Server server(opt);
  const std::string path =
      ::testing::TempDir() + "/ctdf_serve_disc_" +
      std::to_string(static_cast<long>(::getpid())) + ".sock";
  std::thread t([&] { (void)server.serve_socket(path); });

  // Client 1: a stream of real work, then hang up without reading the
  // responses. The server's writes must fail quietly (EPIPE is
  // ignored), be counted, and leave the listener accepting. The first
  // run spins until its 400 ms deadline, so no response exists yet
  // when the client hangs up.
  {
    const int c1 = connect_unix(path);
    ASSERT_GE(c1, 0);
    std::string stream = std::string(kSpinWithDeadline) + "\n";
    for (int i = 1; i <= 6; ++i)
      stream += R"({"id": )" + std::to_string(i) +
                R"(, "op": "run", "source": "var x;\n  x := )" +
                std::to_string(i) + R"( + 1;\n"})" + "\n";
    ASSERT_TRUE(send_all(c1, stream));
    ::close(c1);  // gone before the first response exists
  }

  // Client 2: the server must still answer.
  const int c2 = connect_unix(path);
  ASSERT_GE(c2, 0);
  ASSERT_TRUE(send_all(c2, std::string(kRunX) + "\n"));
  const JsonValue r = parse_response(recv_line(c2));
  EXPECT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("store")->find("x")->number, 3.0);

  // The hangup was observed and counted (the stream may still be
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

}  // namespace
}  // namespace ctdf::serve
