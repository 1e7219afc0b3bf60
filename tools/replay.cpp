// Chaos-replay harness for the ctdf serve front-end.
//
// Drives a live `ctdf serve` process with thousands of seeded mixed
// requests — well-formed runs and compiles (some at `--opt=cleanup` or
// `--opt=all`), malformed lines, bad options, frame-exhausted and
// cycle-capped programs, deadline-doomed requests, stats probes —
// over either the stdin/stdout pipe or the Unix-socket
// transport, and checks the overload-safety invariants end to end:
//
//   * the server never dies while clients are connected;
//   * every request line gets exactly one typed response line, in
//     request order (overload rejections included);
//   * the process exits cleanly after drain (pipe: EOF after a
//     trailing `shutdown`; socket: SIGTERM with nothing outstanding).
//
// The summary is one JSON object on stdout: request/response counts,
// the server's exit status, p50/p95/p99 latency in microseconds, and a
// census of response kinds. Exit status: 0 when every invariant held,
// 1 on a violation, 2 on usage or setup errors.
//
//   replay --server=PATH [--mode=pipe|socket] [--requests=N]
//          [--seed=S] [--workers=K] [--max-queue=Q] [--drain-ms=D]
//          [--socket=PATH] [--timeout-s=T]
//
// Latency is measured per request from the moment the line is written
// to the moment its (order-correlated) response arrives, so under a
// pipelined flood it reflects queueing plus service time — exactly the
// number a client sees under overload.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "support/json_writer.hpp"
#include "support/parse.hpp"

#ifdef _WIN32
int main() {
  std::fprintf(stderr, "replay: POSIX-only (needs fork/exec + sockets)\n");
  return 2;
}
#else

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;
using ctdf::support::parse_unsigned;

long long now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string value_of(const std::string& arg) {
  const auto eq = arg.find('=');
  return eq == std::string::npos ? "" : arg.substr(eq + 1);
}

/// `s` as a JSON string literal.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  ctdf::support::append_json_escaped(out, s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// Request generation
// ---------------------------------------------------------------------------

// Small program pool. Variants of the straight-line program differ in
// one constant so repeats hit the program cache while the pool still
// exercises distinct compilations.
const char* kRunning =
    "var x, y;\n"
    "l:\n"
    "  y := x + 1;\n"
    "  x := x + 1;\n"
    "  if x < 5 then goto l else goto end;\n";

const char* kFib =
    "var i, a, b, t, sum;\n"
    "array f[16];\n"
    "  f[0] := 0;\n"
    "  f[1] := 1;\n"
    "  a := 0;\n"
    "  b := 1;\n"
    "  i := 2;\n"
    "fill:\n"
    "  t := a + b;\n"
    "  f[i] := t;\n"
    "  a := b;\n"
    "  b := t;\n"
    "  i := i + 1;\n"
    "  if i < 16 then goto fill else goto reduce;\n"
    "reduce:\n"
    "  i := 0;\n"
    "loop:\n"
    "  sum := sum + f[i];\n"
    "  i := i + 1;\n"
    "  if i < 16 then goto loop else goto end;\n";

const char* kSpin =
    "var x, i;\n"
    "l:\n"
    "  x := x + 1;\n"
    "  if i < 1 then goto l else goto end;\n";

const char* kBadSyntax = "var x;\n  x := ;\n";

std::string simple_variant(unsigned k) {
  return "var x, y;\n  x := " + std::to_string(k % 8) +
         " + 3;\n  y := x * x;\n";
}

std::string pick_source(std::mt19937_64& rng) {
  switch (rng() % 5) {
    case 0: return kRunning;
    case 1: return kFib;
    default: return simple_variant(static_cast<unsigned>(rng() % 8));
  }
}

std::string options_field(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: return ", \"options\": [\"--mem-elim\"]";
    case 1: return ", \"options\": [\"--barrier\"]";
    case 2: return ", \"options\": [\"--opt=cleanup\"]";
    case 3: return ", \"options\": [\"--opt=all\"]";
    default: return "";
  }
}

/// One seeded request line (no trailing newline). `id` doubles as the
/// correlation hint; malformed lines sometimes drop it on purpose.
std::string generate_request(std::mt19937_64& rng, std::size_t id) {
  const std::string idf = "\"id\": " + std::to_string(id);
  const unsigned long long r = rng() % 100;
  if (r < 65) {  // plain run
    std::string line = "{" + idf + ", \"op\": \"run\", \"source\": " +
                       quoted(pick_source(rng)) + options_field(rng);
    if (rng() % 3 == 0) line += ", \"print\": [\"x\"]";
    return line + "}";
  }
  if (r < 75)  // compile only
    return "{" + idf + ", \"op\": \"compile\", \"source\": " +
           quoted(pick_source(rng)) + options_field(rng) + "}";
  if (r < 83) {  // malformed: parser, shape, and field-type errors
    switch (rng() % 7) {
      case 0: return "{\"op\": \"run\", \"source\": \"var";  // truncated JSON
      case 1: return "[1, 2, 3]";                            // not an object
      case 2: return "{" + idf + "}";                        // missing op
      case 3: return "{" + idf + ", \"op\": \"frobnicate\"}";
      case 4: return "{" + idf + ", \"op\": \"run\"}";  // missing source
      case 5: return "{" + idf + ", \"op\": \"run\", \"source\": 7}";
      default:
        return "{" + idf + ", \"op\": \"run\", \"deadline_ms\": -5, "
               "\"source\": " + quoted(simple_variant(0)) + "}";
    }
  }
  if (r < 90) {  // doomed: typed machine/options/compile errors
    switch (rng() % 5) {
      case 0:
        return "{" + idf + ", \"op\": \"run\", \"options\": "
               "[\"--max-cycles=5\", \"--mem-elim\"], \"source\": " +
               quoted(kFib) + "}";
      case 1:
        return "{" + idf + ", \"op\": \"run\", \"options\": "
               "[\"--frame-capacity=1\", \"--processors=2\", "
               "\"--mem-elim\"], \"source\": " + quoted(kFib) + "}";
      case 2:
        return "{" + idf + ", \"op\": \"run\", \"options\": "
               "[\"--check=wheelie\"], \"source\": " + quoted(kRunning) + "}";
      case 3:  // a pass list: --opt takes only none, cleanup or all
        return "{" + idf + ", \"op\": \"run\", \"options\": "
               "[\"--opt=dce\"], \"source\": " + quoted(kRunning) + "}";
      default:
        return "{" + idf + ", \"op\": \"run\", \"source\": " +
               quoted(kBadSyntax) + "}";
    }
  }
  if (r < 95) {  // deadline-doomed: mostly pre-expired, sometimes live
    const bool live = rng() % 8 == 0;
    return "{" + idf + ", \"op\": \"run\", \"deadline_ms\": " +
           (live ? "5" : "0") + ", \"source\": " + quoted(kSpin) + "}";
  }
  return "{" + idf + ", \"op\": \"stats\"}";
}

// ---------------------------------------------------------------------------
// Server process control
// ---------------------------------------------------------------------------

struct ServerProc {
  pid_t pid = -1;
  int to_server = -1;    // we write requests here
  int from_server = -1;  // we read responses here
};

/// fork/exec `server serve <args>`; pipe mode wires stdin/stdout,
/// socket mode leaves them alone (the caller connects separately).
bool spawn_server(const std::string& server, std::vector<std::string> args,
                  bool pipe_mode, ServerProc& proc) {
  int in_pipe[2] = {-1, -1};   // parent -> child stdin
  int out_pipe[2] = {-1, -1};  // child stdout -> parent
  if (pipe_mode && (pipe(in_pipe) != 0 || pipe(out_pipe) != 0)) {
    std::perror("replay: pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("replay: fork");
    return false;
  }
  if (pid == 0) {
    if (pipe_mode) {
      dup2(in_pipe[0], 0);
      dup2(out_pipe[1], 1);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(server.c_str()));
    std::string serve_cmd = "serve";
    argv.push_back(serve_cmd.data());
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(server.c_str(), argv.data());
    std::perror("replay: execv");
    _exit(127);
  }
  proc.pid = pid;
  if (pipe_mode) {
    close(in_pipe[0]);
    close(out_pipe[1]);
    proc.to_server = in_pipe[1];
    proc.from_server = out_pipe[0];
  }
  return true;
}

int connect_unix(const std::string& path, int attempts) {
  for (int i = 0; i < attempts; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// Reap the server, escalating to SIGKILL if it ignores SIGTERM — a
/// kill here is itself an invariant failure (reported as exit -9).
int await_exit(pid_t pid, int timeout_ms) {
  int status = 0;
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid)
      return WIFEXITED(status) ? WEXITSTATUS(status)
                               : -WTERMSIG(status);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return -SIGKILL;
}

// ---------------------------------------------------------------------------
// Drive loop
// ---------------------------------------------------------------------------

struct Config {
  std::string server;
  std::string mode = "pipe";
  std::string socket_path;
  std::size_t requests = 1000;
  unsigned long long seed = 1;
  std::size_t workers = 2;
  std::size_t max_queue = 64;
  std::size_t drain_ms = 20000;
  long long timeout_s = 120;
};

struct Outcome {
  std::size_t sent = 0;
  std::size_t received = 0;
  int server_exit = -1;
  std::vector<long long> latencies_us;
  std::map<std::string, std::size_t> census;
  std::vector<std::string> violations;
};

/// Writes every line (stamping its send time), then in pipe mode the
/// trailing shutdown, then closes the fd. Runs on its own thread so
/// the reader can drain responses concurrently — otherwise a full
/// pipe would deadlock the flood.
void writer_main(int fd, const std::vector<std::string>* lines,
                 std::atomic<long long>* sent_at, std::atomic<bool>* failed) {
  for (std::size_t i = 0; i < lines->size(); ++i) {
    std::string line = (*lines)[i] + "\n";
    sent_at[i].store(now_us(), std::memory_order_relaxed);
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        failed->store(true, std::memory_order_relaxed);
        ::close(fd);
        return;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    // A breather every ~hundred lines lets the queue drain a little so
    // the run exercises both the overloaded and the steady regime.
    if (i % 97 == 96)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
}

/// Classify one response line into the census; returns false when the
/// line violates the "every response is a typed JSON object" invariant.
bool classify(const std::string& line, std::map<std::string, std::size_t>& c) {
  using ctdf::serve::JsonValue;
  const auto doc = ctdf::serve::json_parse(line);
  if (!doc || !doc->is_object()) {
    ++c["unparseable"];
    return false;
  }
  const JsonValue* ok = doc->find("ok");
  if (!ok || ok->kind != JsonValue::Kind::kBool) {
    ++c["unparseable"];
    return false;
  }
  if (ok->boolean) {
    ++c["ok"];
    return true;
  }
  const JsonValue* err = doc->find("error");
  const JsonValue* kind = err ? err->find("kind") : nullptr;
  if (!kind || !kind->is_string()) {
    ++c["unparseable"];
    return false;
  }
  ++c[kind->string];
  return true;
}

/// Read NDJSON responses until `expected` lines arrive or the stream
/// ends; stamps receive times and feeds the census.
void read_responses(int fd, std::size_t expected,
                    const std::atomic<long long>* sent_at, long long deadline_us,
                    Outcome& out) {
  std::string buf;
  char chunk[4096];
  while (out.received < expected) {
    const long long left_ms = (deadline_us - now_us()) / 1000;
    if (left_ms <= 0) {
      out.violations.push_back("timed out waiting for responses");
      return;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(std::min(left_ms,
                                                             1000LL)));
    if (pr < 0 && errno != EINTR) return;
    if (pr <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // EOF
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      const std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      const long long t = now_us();
      if (out.received < expected) {
        const long long sent =
            sent_at[out.received].load(std::memory_order_relaxed);
        out.latencies_us.push_back(t - sent);
      }
      ++out.received;
      if (!classify(line, out.census))
        out.violations.push_back("malformed response: " + line.substr(0, 120));
    }
    buf.erase(0, start);
  }
}

long long percentile(std::vector<long long>& v, double p) {
  if (v.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

int run_replay(const Config& cfg) {
  // A dead server must surface as a failed write, not a SIGPIPE death
  // of the harness itself.
  signal(SIGPIPE, SIG_IGN);

  std::mt19937_64 rng(cfg.seed);
  std::vector<std::string> lines;
  lines.reserve(cfg.requests + 1);
  for (std::size_t i = 0; i < cfg.requests; ++i)
    lines.push_back(generate_request(rng, i));
  const bool pipe_mode = cfg.mode == "pipe";
  if (pipe_mode)
    lines.push_back("{\"id\": \"bye\", \"op\": \"shutdown\"}");

  std::vector<std::string> args = {
      "--workers=" + std::to_string(cfg.workers),
      "--max-queue=" + std::to_string(cfg.max_queue),
      "--drain-ms=" + std::to_string(cfg.drain_ms),
  };
  std::string socket_path = cfg.socket_path;
  if (!pipe_mode) {
    if (socket_path.empty())
      socket_path = "replay_" + std::to_string(getpid()) + ".sock";
    args.push_back("--socket=" + socket_path);
  }

  ServerProc proc;
  if (!spawn_server(cfg.server, args, pipe_mode, proc)) return 2;

  int wfd = proc.to_server;
  int rfd = proc.from_server;
  if (!pipe_mode) {
    const int fd = connect_unix(socket_path, /*attempts=*/100);
    if (fd < 0) {
      std::fprintf(stderr, "replay: cannot connect to %s\n",
                   socket_path.c_str());
      kill(proc.pid, SIGKILL);
      waitpid(proc.pid, nullptr, 0);
      return 2;
    }
    wfd = fd;
    rfd = fd;
  }

  Outcome out;
  out.sent = lines.size();
  auto sent_at = std::make_unique<std::atomic<long long>[]>(lines.size());
  std::atomic<bool> write_failed{false};
  const long long deadline_us = now_us() + cfg.timeout_s * 1'000'000;

  // Socket mode reads and writes one fd; closing it in the writer
  // would yank the reader, so the writer gets a dup and only that dies.
  const int writer_fd = pipe_mode ? wfd : ::dup(wfd);
  std::thread writer(writer_main, writer_fd, &lines, sent_at.get(),
                     &write_failed);
  read_responses(rfd, lines.size(), sent_at.get(), deadline_us, out);
  writer.join();
  if (write_failed.load())
    out.violations.push_back("write to server failed (server died?)");

  if (pipe_mode) {
    // EOF + drain already happened; the process should be gone.
    out.server_exit = await_exit(proc.pid, 30000);
    ::close(rfd);
  } else {
    // Everything answered: a SIGTERM now must drain cleanly.
    kill(proc.pid, SIGTERM);
    ::close(wfd);
    out.server_exit = await_exit(proc.pid, 30000);
  }

  if (out.received != out.sent)
    out.violations.push_back(
        "dropped responses: sent " + std::to_string(out.sent) + ", received " +
        std::to_string(out.received));
  if (out.server_exit != 0)
    out.violations.push_back("server exit status " +
                             std::to_string(out.server_exit));

  const long long p50 = percentile(out.latencies_us, 0.50);
  const long long p95 = percentile(out.latencies_us, 0.95);
  const long long p99 = percentile(out.latencies_us, 0.99);

  std::string census = "{";
  bool first = true;
  for (const auto& [k, v] : out.census) {
    if (!first) census += ", ";
    first = false;
    census += quoted(k) + ": " + std::to_string(v);
  }
  census += "}";
  std::printf(
      "{\"mode\": %s, \"requests\": %zu, \"responses\": %zu, "
      "\"server_exit\": %d, \"p50_us\": %lld, \"p95_us\": %lld, "
      "\"p99_us\": %lld, \"census\": %s, \"violations\": %zu}\n",
      quoted(cfg.mode).c_str(), out.sent, out.received, out.server_exit, p50,
      p95, p99, census.c_str(), out.violations.size());
  for (const std::string& v : out.violations)
    std::fprintf(stderr, "replay: INVARIANT VIOLATED: %s\n", v.c_str());
  return out.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    unsigned long long v = 0;
    if (starts_with(a, "--server=")) {
      cfg.server = value_of(a);
    } else if (starts_with(a, "--mode=")) {
      cfg.mode = value_of(a);
    } else if (starts_with(a, "--socket=")) {
      cfg.socket_path = value_of(a);
    } else if (starts_with(a, "--requests=")) {
      if (!parse_unsigned(value_of(a), v) || v == 0 || v > (1ull << 24)) {
        std::fprintf(stderr, "replay: bad %s\n", a.c_str());
        return 2;
      }
      cfg.requests = static_cast<std::size_t>(v);
    } else if (starts_with(a, "--seed=")) {
      if (!parse_unsigned(value_of(a), cfg.seed)) return 2;
    } else if (starts_with(a, "--workers=")) {
      if (!parse_unsigned(value_of(a), v) || v == 0) return 2;
      cfg.workers = static_cast<std::size_t>(v);
    } else if (starts_with(a, "--max-queue=")) {
      if (!parse_unsigned(value_of(a), v) || v == 0) return 2;
      cfg.max_queue = static_cast<std::size_t>(v);
    } else if (starts_with(a, "--drain-ms=")) {
      if (!parse_unsigned(value_of(a), v)) return 2;
      cfg.drain_ms = static_cast<std::size_t>(v);
    } else if (starts_with(a, "--timeout-s=")) {
      if (!parse_unsigned(value_of(a), v) || v == 0) return 2;
      cfg.timeout_s = static_cast<long long>(v);
    } else {
      std::fprintf(stderr, "replay: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (cfg.server.empty()) {
    std::fprintf(stderr,
                 "usage: replay --server=PATH [--mode=pipe|socket] "
                 "[--requests=N] [--seed=S] [--workers=K] [--max-queue=Q] "
                 "[--drain-ms=D] [--socket=PATH] [--timeout-s=T]\n");
    return 2;
  }
  if (cfg.mode != "pipe" && cfg.mode != "socket") {
    std::fprintf(stderr, "replay: --mode must be pipe or socket\n");
    return 2;
  }
  return run_replay(cfg);
}

#endif  // _WIN32
