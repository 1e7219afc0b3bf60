#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "machine/flags.hpp"
#include "machine/report.hpp"
#include "serve/json.hpp"
#include "support/diagnostics.hpp"
#include "support/json_writer.hpp"
#include "translate/options.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace ctdf::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// A compile or run request slower than this (wall clock) bumps
/// ServeStats::slow_requests.
constexpr std::int64_t kSlowRequestMs = 1000;

std::int64_t nanos_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

using support::JsonWriter;

/// Opens a response object: {"id": <id>, "op": "<op>", "ok": <ok>.
/// Every response starts with these three members.
JsonWriter& open_response(JsonWriter& w, std::string_view id_json,
                          std::string_view op, bool ok) {
  return w.begin_object().key("id").raw(id_json).member("op", op).member("ok",
                                                                        ok);
}

/// One request, decoded as far as flag parsing can take it.
struct Request {
  std::string id_json = "null";  ///< echoed verbatim
  std::string op;
  std::string source;
  translate::TranslateOptions topt;
  machine::MachineOptions mopt;
  std::int64_t deadline_ms = -1;  ///< request wall budget, compile included
  std::vector<std::string> print;
  bool has_print = false;

  // Decode failure, if any.
  std::string error_kind;
  std::string error_message;
  [[nodiscard]] bool ok() const { return error_kind.empty(); }
  /// Records the first failure; returns false so decoding can stop with
  /// `return req.fail(...)`.
  bool fail(std::string kind, std::string message) {
    if (error_kind.empty()) {
      error_kind = std::move(kind);
      error_message = std::move(message);
    }
    return false;
  }
};

/// Applies one "options" entry: a schema flag, else a machine flag.
bool apply_flag(Request& req, const std::string& flag) {
  switch (translate::apply_schema_flag(req.topt, flag)) {
    case translate::SchemaFlagParse::kApplied:
      return true;
    case translate::SchemaFlagParse::kBadValue:
      return req.fail("options", "bad value: " + flag);
    case translate::SchemaFlagParse::kNotSchemaFlag:
      break;
  }
  std::string detail;
  switch (machine::apply_machine_flag(req.mopt, flag, &detail)) {
    case machine::MachineFlagParse::kApplied:
      return true;
    case machine::MachineFlagParse::kBadValue:
      return req.fail("options", "bad value: " + flag +
                                     (detail.empty() ? "" : " (" + detail + ")"));
    case machine::MachineFlagParse::kNotMachineFlag:
      break;
  }
  return req.fail("options", "unknown option: " + flag);
}

/// Fills `req` from the request object; false on the first failure.
bool decode_fields(const JsonValue& obj, Request& req) {
  if (!obj.is_object())
    return req.fail("protocol", "request must be a JSON object");
  if (const JsonValue* id = obj.find("id")) {
    if (id->is_array() || id->is_object())
      return req.fail("protocol", "\"id\" must be a scalar");
    req.id_json = json_render(*id);
  }
  const JsonValue* op = obj.find("op");
  if (!op || !op->is_string())
    return req.fail("protocol", "missing \"op\" string");
  req.op = op->string;
  if (const JsonValue* src = obj.find("source")) {
    if (!src->is_string())
      return req.fail("protocol", "\"source\" must be a string");
    req.source = src->string;
  }
  if (const JsonValue* opts = obj.find("options")) {
    if (!opts->is_array())
      return req.fail("protocol", "\"options\" must be an array of strings");
    for (const JsonValue& o : opts->array) {
      if (!o.is_string())
        return req.fail("protocol",
                        "\"options\" must be an array of strings");
      if (!apply_flag(req, o.string)) return false;
    }
  }
  if (const JsonValue* dl = obj.find("deadline_ms")) {
    const double v = dl->number;
    if (dl->kind != JsonValue::Kind::kNumber || v < 0 || v > 1e12 ||
        v != static_cast<double>(static_cast<std::int64_t>(v)))
      return req.fail("protocol",
                      "\"deadline_ms\" must be a non-negative integer");
    req.deadline_ms = static_cast<std::int64_t>(v);
  }
  if (const JsonValue* print = obj.find("print")) {
    if (!print->is_array())
      return req.fail("protocol", "\"print\" must be an array of strings");
    req.has_print = true;
    req.print.reserve(print->array.size());
    for (const JsonValue& p : print->array) {
      if (!p.is_string())
        return req.fail("protocol", "\"print\" must be an array of strings");
      req.print.push_back(p.string);
    }
  }
  return true;
}

/// Decodes a request over the CLI's defaults: the translate default
/// (schema2+opt), the machine defaults and the server's deadline.
Request decode_request(const JsonValue& obj, std::int64_t default_deadline_ms) {
  Request req;
  req.topt = translate::TranslateOptions::schema2_optimized();
  req.mopt = machine::default_cli_machine_options();
  req.deadline_ms = default_deadline_ms;
  (void)decode_fields(obj, req);
  return req;
}

/// {"kind": "...", "message": "..."} error responses keep the short
/// key set {id, op, ok, error}; tests/serve_test.cpp freezes it.
std::string error_response(const Request& req) {
  std::string out;
  JsonWriter w(out, JsonWriter::Layout::kCompact);
  open_response(w, req.id_json, req.op, false)
      .key("error")
      .begin_object()
      .member("kind", req.error_kind)
      .member("message", req.error_message)
      .end_object()
      .end_object();
  return out;
}

void write_stage_nanos(JsonWriter& w, const translate::PipelineTrace& trace) {
  w.begin_object();
  for (const auto& r : trace.stages)
    if (r.ran) w.member(translate::to_string(r.stage), r.nanos);
  w.member("total", trace.total_nanos()).end_object();
}

/// The final store as {"name": value, "name": [v, ...]}. Default: every
/// scalar (the CLI's print_store convention); an explicit print list
/// selects names, unknown names render as null.
void write_store(JsonWriter& w, const machine::ProgramImage& image,
                 const lang::Store& store, const Request& req) {
  const auto cell_value = [&](std::uint64_t idx) -> std::int64_t {
    return idx < store.cells.size() ? store.cells[idx] : 0;
  };
  const auto emit = [&](const machine::NamedCell& c) {
    w.key(c.name);
    if (c.extent == 0) {
      w.value(cell_value(c.base));
      return;
    }
    w.begin_array();
    for (std::int64_t i = 0; i < c.extent; ++i)
      w.value(cell_value(c.base + static_cast<std::uint64_t>(i)));
    w.end_array();
  };
  w.begin_object();
  if (req.has_print) {
    for (const std::string& name : req.print) {
      const auto it =
          std::find_if(image.names.begin(), image.names.end(),
                       [&](const machine::NamedCell& c) { return c.name == name; });
      if (it != image.names.end())
        emit(*it);
      else
        w.key(name).null();
    }
  } else {
    for (const auto& c : image.names)
      if (c.extent == 0) emit(c);
  }
  w.end_object();
}

/// The response to a compile or run request.
std::string program_response(core::ProgramCache& cache, const Request& req,
                             ServeStats& stats) {
  const auto t0 = Clock::now();
  const auto fail = [&](std::string kind, std::string message) {
    Request r = req;
    r.fail(std::move(kind), std::move(message));
    return error_response(r);
  };
  if (req.source.empty())
    return fail("protocol", "missing \"source\" for op " + req.op);

  core::ProgramCache::Outcome got;
  try {
    got = cache.get(req.source, core::PipelineOptions(req.topt));
  } catch (const std::exception& e) {
    return fail("compile", e.what());
  }

  std::optional<machine::RunResult> res;  // run only, unless it threw
  std::string machine_error;
  std::int64_t exec_nanos = 0;
  machine::MachineOptions mopt = req.mopt;
  if (req.op == "run") {
    // The request deadline covers compile time too: whatever the
    // pipeline spent comes off the machine budget, clamped to zero so
    // an exhausted deadline still produces the typed machine error
    // (the engine rejects a 0 ms deadline up front). An explicit
    // --deadline-ms option keeps whichever bound is tighter.
    if (req.deadline_ms >= 0) {
      const std::int64_t left = std::max<std::int64_t>(
          0, req.deadline_ms - nanos_since(t0) / 1'000'000);
      mopt.budget.deadline_ms = mopt.budget.deadline_ms >= 0
                                    ? std::min(mopt.budget.deadline_ms, left)
                                    : left;
    }
    const auto e0 = Clock::now();
    try {
      res = core::execute(got.entry->image, mopt);
      if (!res->stats.completed)
        machine_error = res->stats.error_detail.render();
    } catch (const std::exception& e) {
      // The request boundary: a machine that throws (say, a declared
      // array too large to allocate) fails this request, not the
      // server. No stats exist for a run that never finished.
      res.reset();
      machine_error = std::string("machine threw: ") + e.what();
    }
    exec_nanos = nanos_since(e0);
  }

  const std::int64_t total_nanos = nanos_since(t0);
  if (total_nanos > kSlowRequestMs * 1'000'000)
    stats.slow_requests.fetch_add(1, std::memory_order_relaxed);

  const bool ok = machine_error.empty();
  // A run response is 1 to 2 KB, the stats object alone about 850
  // bytes: one allocation instead of doubling up from empty.
  std::string out;
  out.reserve(2048);
  JsonWriter w(out, JsonWriter::Layout::kCompact);
  open_response(w, req.id_json, req.op, ok).key("cache");
  core::write_cache_json(w, cache.stats(), got.disposition, got.entry->key);
  w.key("content_hash").hex16(got.entry->content_hash).key("stage_nanos");
  write_stage_nanos(w, got.trace);
  w.member("exec_nanos", exec_nanos)
      .member("total_nanos", total_nanos)
      .key("stats");
  if (res)
    machine::write_stats_json(w, res->stats, mopt);
  else
    w.null();
  w.key("store");
  if (res && res->stats.completed)
    write_store(w, got.entry->image, res->store, req);
  else
    w.null();
  w.key("error");
  if (ok)
    w.null();
  else
    w.begin_object()
        .member("kind", "machine")
        .member("message", machine_error)
        .end_object();
  w.end_object();
  return out;
}

/// The "stats" op: a liveness probe that never touches the cache or
/// the machine. Reports `workers` workers and their gauges. Key set
/// frozen by tests/serve_test.cpp.
std::string stats_response(const Request& req, const ServeStats& s,
                           const WorkerGauge* gauges, std::size_t workers,
                           const ServeOptions& opts) {
  std::string out;
  JsonWriter w(out, JsonWriter::Layout::kCompact);
  open_response(w, req.id_json, "stats", true)
      .key("serve")
      .begin_object()
      .member("workers", workers)
      .member("max_queue", opts.max_queue)
      .member("accepted", s.accepted.load())
      .member("completed", s.completed.load())
      .member("rejected_overload", s.rejected_overload.load())
      .member("rejected_draining", s.rejected_draining.load())
      .member("slow_requests", s.slow_requests.load())
      .member("client_disconnects", s.client_disconnects.load())
      .member("queue_depth", s.queue_depth.load())
      .member("in_flight", s.in_flight.load())
      .key("per_worker")
      .begin_array();
  for (std::size_t i = 0; i < workers; ++i)
    w.begin_object()
        .member("handled", gauges[i].handled.load())
        .member("busy", gauges[i].in_flight.load() != 0)
        .end_object();
  w.end_array().end_object().key("error").null().end_object();
  return out;
}

}  // namespace

Server::Server() : Server(ServeOptions{}) {}

Server::Server(ServeOptions options)
    : options_(options), cache_(options.cache) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  gauges_ = std::make_unique<WorkerGauge[]>(options_.workers);
  workers_started_ = options_.workers;
}

std::string Server::handle_line(const std::string& line, bool* shutdown) {
  if (shutdown) *shutdown = false;
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  const auto finish = [&](std::string response) {
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    return response;
  };
  std::string parse_error;
  const auto doc = json_parse(line, &parse_error);
  if (!doc) {
    Request r;
    r.fail("protocol", "bad JSON: " + parse_error);
    return finish(error_response(r));
  }
  Request req = decode_request(*doc, options_.default_deadline_ms);
  if (!req.ok()) return finish(error_response(req));

  if (req.op == "shutdown") {
    if (shutdown) *shutdown = true;
    std::string out;
    JsonWriter w(out, JsonWriter::Layout::kCompact);
    open_response(w, req.id_json, "shutdown", true)
        .key("error")
        .null()
        .end_object();
    return finish(std::move(out));
  }
  if (req.op == "stats")
    return finish(stats_response(req, stats_, gauges_.get(),
                                 workers_started_.load(), options_));
  if (req.op == "compile" || req.op == "run")
    return finish(program_response(cache_, req, stats_));
  req.fail("protocol", "unknown op: " + req.op);
  return finish(error_response(req));
}

#ifndef _WIN32

namespace {

/// Set by SIGTERM / SIGINT. Installed without SA_RESTART so blocking
/// poll/read/accept return EINTR and the serve loops notice promptly.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void serve_stop_handler(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client hanging up mid-response must be a write error we can
  // count, not a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);
}

/// Writes the whole buffer; false on EPIPE/ECONNRESET/any write error
/// (the client is gone).
bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

/// The overload-safe request pump behind serve_pipe and serve_socket:
/// reader -> bounded queue -> worker pool -> ordered writer.
///
///  * Admission: the reader never blocks on a full queue; it answers
///    "overloaded" immediately (id null — clients correlate by
///    response order) with a retry_after_ms hint scaled by observed
///    service time and queue depth.
///  * Ordering: every read line gets a sequence number; workers
///    deliver into a reorder buffer, so responses leave in request
///    order even with a parallel pool.
///  * Drain: begin_drain() (shutdown op, signal, or EOF) opens a
///    drain_ms window. Queued requests still execute inside it; after
///    it closes they are answered with "draining" rejections. Either
///    way every queued request is answered and join() returns.
///  * Dead clients: a failed write flips client_gone; later responses
///    are discarded (the reorder cursor still advances) and the
///    disconnect is counted once.
///  * Refused threads: if the system refuses a worker thread, the pump
///    keeps the workers that started (see started()).
class Pump {
 public:
  Pump(Server& server, int out_fd)
      : server_(server),
        opts_(server.options_),
        stats_(server.stats_),
        gauges_(server.gauges_.get()),
        out_fd_(out_fd) {
    workers_.reserve(opts_.workers);
    try {
      for (std::size_t w = 0; w < opts_.workers; ++w)
        workers_.emplace_back([this, w] { worker_main(w); });
    } catch (const std::system_error& e) {
      refused_ = e.what();
    }
    server.workers_started_ = workers_.size();
  }

  ~Pump() { join(); }

  /// True when every requested worker started. Otherwise writes one
  /// line to stderr, and returns false if none did: such a pump must
  /// not be fed, and `if_none` (what the caller does instead) ends the
  /// line.
  [[nodiscard]] bool started(const char* if_none) const {
    if (workers_.size() == opts_.workers) return true;
    std::fprintf(stderr, "serve: started %zu of %zu worker threads (%s)%s\n",
                 workers_.size(), opts_.workers, refused_.c_str(),
                 workers_.empty() ? if_none : "");
    return !workers_.empty();
  }

  /// Reader side: admit or reject one request line.
  void submit(std::string line) {
    const std::uint64_t seq = next_seq_++;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (queue_.size() >= opts_.max_queue) {
        const std::size_t depth = queue_.size();
        lk.unlock();
        stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
        deliver(seq, overloaded_response(depth));
        return;
      }
      queue_.push_back(Item{seq, std::move(line)});
      stats_.queue_depth.store(queue_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Stops accepting and opens the drain window (idempotent; first
  /// caller pins the deadline). The deadline is the draining flag, so a
  /// worker can never see "draining" without the window's end.
  void begin_drain() {
    std::int64_t expected = kNotDraining;
    drain_deadline_ns_.compare_exchange_strong(
        expected, (Clock::now() + std::chrono::milliseconds(opts_.drain_ms))
                      .time_since_epoch()
                      .count());
    cv_.notify_all();
  }

  /// Reader side: no more submit() calls will come.
  void finish_input() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      input_done_ = true;
    }
    cv_.notify_all();
  }

  /// Waits until every queued request has been answered (executed or
  /// drain-rejected) and the workers exited.
  void join() {
    for (std::thread& t : workers_)
      if (t.joinable()) t.join();
  }

  [[nodiscard]] bool draining() const {
    return drain_deadline_ns_.load() != kNotDraining;
  }
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool client_gone() const {
    std::lock_guard<std::mutex> lk(wmu_);
    return client_gone_;
  }

 private:
  struct Item {
    std::uint64_t seq;
    std::string line;
  };

  void worker_main(std::size_t w) {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return !queue_.empty() || input_done_; });
        if (queue_.empty()) return;  // input done, everything answered
        item = std::move(queue_.front());
        queue_.pop_front();
        stats_.queue_depth.store(queue_.size(), std::memory_order_relaxed);
      }
      gauges_[w].in_flight.store(1, std::memory_order_relaxed);
      stats_.in_flight.fetch_add(1, std::memory_order_relaxed);

      std::string response;
      bool shutdown = false;
      const bool window_closed =
          Clock::now().time_since_epoch().count() >= drain_deadline_ns_.load();
      if (window_closed) {
        stats_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
        response = draining_response(item.line);
      } else {
        const auto t0 = Clock::now();
        response = server_.handle_line(item.line, &shutdown);
        // EWMA of service time feeds the overload retry hint; the
        // racy read-modify-write is fine, it is only a hint.
        const std::int64_t us = nanos_since(t0) / 1000;
        const std::int64_t prev = ewma_us_.load(std::memory_order_relaxed);
        ewma_us_.store(prev == 0 ? us : (prev * 4 + us) / 5,
                       std::memory_order_relaxed);
      }
      deliver(item.seq, response);

      gauges_[w].handled.fetch_add(1, std::memory_order_relaxed);
      gauges_[w].in_flight.store(0, std::memory_order_relaxed);
      stats_.in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (shutdown) {
        shutdown_.store(true, std::memory_order_relaxed);
        begin_drain();
      }
    }
  }

  /// Reorder buffer: responses leave in sequence order regardless of
  /// which worker finished first. Once the client is gone, responses
  /// are discarded but the cursor still advances.
  void deliver(std::uint64_t seq, std::string line) {
    std::lock_guard<std::mutex> lk(wmu_);
    pending_.emplace(seq, std::move(line));
    for (auto it = pending_.find(next_write_);
         it != pending_.end();
         it = pending_.find(next_write_)) {
      if (!client_gone_ && !write_all(out_fd_, it->second + "\n")) {
        client_gone_ = true;
        stats_.client_disconnects.fetch_add(1, std::memory_order_relaxed);
      }
      pending_.erase(it);
      ++next_write_;
    }
  }

  [[nodiscard]] std::string overloaded_response(std::size_t depth) const {
    const std::int64_t svc_ms = std::max<std::int64_t>(
        1, ewma_us_.load(std::memory_order_relaxed) / 1000);
    const std::int64_t retry = std::clamp<std::int64_t>(
        svc_ms * (static_cast<std::int64_t>(depth / workers_.size()) + 1), 1,
        60'000);
    std::string out;
    JsonWriter w(out, JsonWriter::Layout::kCompact);
    open_response(w, "null", "", false)
        .key("error")
        .begin_object()
        .member("kind", "overloaded")
        .member("message", "server overloaded: " + std::to_string(depth) +
                               " request(s) queued (max-queue " +
                               std::to_string(opts_.max_queue) + ")")
        .member("retry_after_ms", retry)
        .end_object()
        .end_object();
    return out;
  }

  /// Drain rejections arrive rarely enough to afford re-parsing the
  /// line for its id, so clients can correlate directly.
  [[nodiscard]] static std::string draining_response(const std::string& line) {
    Request r;
    if (const auto doc = json_parse(line); doc && doc->is_object()) {
      if (const JsonValue* idv = doc->find("id"))
        if (!idv->is_array() && !idv->is_object()) r.id_json = json_render(*idv);
      if (const JsonValue* opv = doc->find("op"))
        if (opv->is_string()) r.op = opv->string;
    }
    r.fail("draining",
           "server draining: request was not started before the drain "
           "window closed");
    return error_response(r);
  }

  Server& server_;
  const ServeOptions& opts_;
  ServeStats& stats_;
  WorkerGauge* gauges_;
  const int out_fd_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool input_done_ = false;

  mutable std::mutex wmu_;
  std::map<std::uint64_t, std::string> pending_;
  std::uint64_t next_write_ = 0;
  bool client_gone_ = false;

  std::uint64_t next_seq_ = 0;  ///< reader thread only
  std::atomic<bool> shutdown_{false};
  /// End of the drain window in steady-clock ns; kNotDraining until
  /// begin_drain() pins it.
  static constexpr std::int64_t kNotDraining = INT64_MAX;
  std::atomic<std::int64_t> drain_deadline_ns_{kNotDraining};
  std::atomic<std::int64_t> ewma_us_{0};
  std::vector<std::thread> workers_;
  std::string refused_;  ///< why a worker thread was refused
};

namespace {

/// Reads NDJSON lines from fd into the pump until EOF, a read error,
/// a stop signal, or the pump starts draining. Returns false when the
/// fd died mid-stream (reset), true on orderly EOF / stop.
bool pump_read_loop(int fd, Pump& pump) {
  std::string buf;
  char chunk[65536];
  for (;;) {
    if (g_stop || pump.draining() || pump.client_gone()) return true;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) continue;
    if (p.revents & (POLLERR | POLLNVAL)) return false;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n == 0) {
      // Orderly EOF; a final unterminated line still counts.
      if (!buf.empty()) pump.submit(std::move(buf));
      return true;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, eol);
      buf.erase(0, eol + 1);
      if (!line.empty()) pump.submit(std::move(line));
      // A worker may have processed a shutdown op already: stop
      // feeding it the rest of the buffer.
      if (pump.draining()) return true;
    }
  }
}

}  // namespace

int Server::serve_pipe(int in_fd, int out_fd) {
  install_signal_handlers();
  g_stop = 0;
  Pump pump(*this, out_fd);
  if (!pump.started("; no request read")) return 2;
  pump_read_loop(in_fd, pump);
  // EOF, signal, or shutdown: whatever is queued gets the drain
  // window, then the pump guarantees an answer for every line read.
  pump.begin_drain();
  pump.finish_input();
  pump.join();
  return 0;
}

int Server::serve_socket(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "serve: socket path too long: %s\n", path.c_str());
    return 2;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("serve: socket");
    return 2;
  }
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 8) < 0) {
    std::perror("serve: bind/listen");
    ::close(fd);
    return 2;
  }
  install_signal_handlers();
  g_stop = 0;
  bool stop = false;
  while (!stop && !g_stop) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      Pump pump(*this, client);
      if (pump.started("; connection closed")) {
        const bool orderly = pump_read_loop(client, pump);
        if (!orderly)
          stats_.client_disconnects.fetch_add(1, std::memory_order_relaxed);
        pump.begin_drain();
        pump.finish_input();
        pump.join();
        stop = pump.shutdown_requested();
      }
    }
    ::close(client);
    // A vanished client (EOF, reset, failed write) only ends its own
    // connection; the listener keeps accepting.
  }
  ::close(fd);
  ::unlink(path.c_str());
  return 0;
}

#else  // _WIN32

int Server::serve_pipe(int, int) {
  std::fprintf(stderr, "serve: fd mode is not supported on this platform\n");
  return 2;
}

int Server::serve_socket(const std::string&) {
  std::fprintf(stderr, "serve: --socket is not supported on this platform\n");
  return 2;
}

#endif

}  // namespace ctdf::serve
