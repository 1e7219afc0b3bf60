// `ctdf serve` — the compile-once, serve-many front-end (ROADMAP item
// 1: "what a 'millions of users' ctdf service would look like").
//
// The server accepts newline-delimited JSON request objects on stdin
// (or a Unix stream socket) and emits exactly one single-line JSON
// response per request, in request order. All requests multiplex off
// one shared core::ProgramCache, so a hot program is lowered exactly
// once — every later request pays only execution.
//
// Request object:
//   {"id": <any scalar, echoed back>,          // optional
//    "op": "compile" | "run" | "stats" | "shutdown",
//    "source": "<ctdf program text>",          // compile / run
//    "options": ["--mem-elim", "--check=integrity", ...],   // optional:
//        the CLI's schema flags (translate::apply_schema_flag) and
//        machine flags (machine::apply_machine_flag), per request
//    "deadline_ms": 250,                       // optional: wall-clock
//        budget for this request, compile time included; the remainder
//        after compilation becomes the machine deadline (clamped to 0,
//        so an exhausted deadline is a typed machine error, not a hang).
//    "print": ["x", "a"]}                      // optional: store
//        variables to return (default: every scalar)
//
// Response object (one line; key sets frozen by tests/serve_test.cpp):
//   {"id":..., "op":"run", "ok":true,
//    "cache": {"disposition":"hit-memory"|"hit-disk"|"miss",
//              "key":"<16 hex>", "hits":..., "disk_hits":...,
//              "misses":..., "evictions":..., "disk_rejects":...,
//              "entries":..., "blob_bytes":...},
//    "content_hash": "<16 hex>",               // the program's blob hash
//    "stage_nanos": {"parse":..., ..., "total":...},  // compile stages
//        this request actually ran; {"total": 0} on cache hits
//    "exec_nanos":..., "total_nanos":...,      // this request's wall time,
//        up to writing its response
//    "stats": {<machine::render_stats_json>} | null,   // run only
//    "store": {"x": 3, "a": [1, 2]} | null,    // run only
//    "error": null | {"kind": "protocol"|"options"|"compile"|"machine",
//                     "message": "..."}}
//
// A "stats" response carries a "serve" object with the admission /
// overload counters (ServeStats below). "shutdown" acknowledges,
// stops accepting, and drains (stdin mode also drains at EOF).
//
// Overload and drain (the fd-based loops serve_pipe / serve_socket):
// requests flow reader -> bounded queue (max_queue) -> worker pool ->
// ordered writer. The pool's workers are the only threads that run
// requests: pipelined lines run in parallel on them and are answered
// in request order. When the queue is full the reader answers
// immediately with {"kind": "overloaded", "message": ...,
// "retry_after_ms": N} (id null — correlate by response order; the
// hint scales with observed service time and queue depth). SIGTERM /
// SIGINT / the shutdown op stop the reader; queued requests are still
// executed until drain_ms expires, after which they are answered with
// {"kind": "draining", ...} rejections. Either way every request that
// was read gets exactly one response and the process exits cleanly
// (socket file unlinked). SIGPIPE is ignored: a client that hangs up
// mid-response is counted (client_disconnects) and the server keeps
// accepting. A worker thread the system refuses is reported on stderr;
// the pump runs on the workers that started, and with none it serves
// nothing (serve_pipe returns 2, serve_socket closes that client).
//
// Errors never kill the server: every failure — unparseable line,
// unknown op, bad flag, compile error, machine error, overload — is
// an "ok": false response with a typed error object on its own line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/progcache.hpp"

namespace ctdf::serve {

struct ServeOptions {
  /// Pump worker threads in serve_pipe / serve_socket; the Server
  /// raises 0 to 1. Responses are ordered regardless.
  std::size_t workers = 1;
  /// Admission bound: requests beyond this many queued are rejected
  /// with a typed "overloaded" response instead of queueing without
  /// bound.
  std::size_t max_queue = 256;
  /// Drain window after shutdown / SIGTERM / EOF: queued requests
  /// still execute until it closes, then are rejected as "draining".
  /// In-flight requests are always joined.
  std::int64_t drain_ms = 2000;
  /// Deadline applied to requests that do not carry their own
  /// "deadline_ms". Negative = none.
  std::int64_t default_deadline_ms = -1;
  /// The shared program cache (capacity / disk dir / disk capacity).
  core::ProgramCache::Config cache;
};

/// Liveness counters, exposed by the "stats" op. Monotonic except the
/// two gauges (queue_depth, in_flight).
struct ServeStats {
  std::atomic<std::uint64_t> accepted{0};    ///< admitted to a handler
  std::atomic<std::uint64_t> completed{0};   ///< handler responses produced
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> slow_requests{0};  ///< compile / run over 1 s
  std::atomic<std::uint64_t> client_disconnects{0};
  std::atomic<std::uint64_t> queue_depth{0};
  std::atomic<std::uint64_t> in_flight{0};
};

/// Per-pump-worker accounting, surfaced by the "stats" op.
struct WorkerGauge {
  std::atomic<std::uint64_t> handled{0};
  std::atomic<std::uint64_t> in_flight{0};
};

class Server {
 public:
  Server();
  explicit Server(ServeOptions options);

  /// Handles one request line, returning the response line (no trailing
  /// newline). Sets *shutdown when the request asked the serve loop to
  /// stop. Never throws. Safe to call from several threads at once.
  [[nodiscard]] std::string handle_line(const std::string& line,
                                        bool* shutdown = nullptr);

  /// NDJSON loop over raw fds with the full pump: bounded queue,
  /// worker pool, ordered responses, overload rejection, signal-aware
  /// graceful drain. The CLI's stdin mode is serve_pipe(0, 1). Returns
  /// 2, before reading, if no worker thread could be started.
  int serve_pipe(int in_fd, int out_fd);

  /// Same protocol over a Unix stream socket (one client at a time;
  /// the listener accepts the next connection when a client hangs up).
  /// Signal-aware, SIGPIPE-proof. Returns non-zero only if the socket
  /// cannot be created/bound.
  int serve_socket(const std::string& path);

  [[nodiscard]] core::ProgramCache& cache() { return cache_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  [[nodiscard]] const ServeOptions& options() const { return options_; }

 private:
  friend class Pump;

  ServeOptions options_;
  core::ProgramCache cache_;
  ServeStats stats_;
  /// One slot per pump worker (options_.workers), sized once so the
  /// "stats" op can read them without locking against pool start/stop.
  std::unique_ptr<WorkerGauge[]> gauges_;
  /// The workers the "stats" op reports: options_.workers until a pump
  /// starts, then the number of worker threads that pump started.
  std::atomic<std::size_t> workers_started_{0};
};

}  // namespace ctdf::serve
