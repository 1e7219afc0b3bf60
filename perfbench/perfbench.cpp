// perfbench — the load generator and the in-process tracer behind
// perfbench/run.py (see perfbench/README.md).
//
//   perfbench serve --ctdf=PATH --workload=serve-warm|serve-cold
//                   --seed=N --seconds=S --blocks=1,2,... [--programs=FILE]
//   perfbench trace --ctdf=PATH --workload=kernels-run|serve-warm|serve-cold
//                   --seed=N --seconds=S [--programs=FILE] --work=DIR
//                   [--spans=FILE]
//   perfbench probe
//
// `serve` drives real `ctdf serve` processes over their stdin/stdout
// pipes: a closed loop with two outstanding requests per server worker
// from one client thread, one fresh server per timed block (--blocks lists each block's --workers), each response checked
// against the reference interpreter's store. `trace` replays the same seeded requests
// in-process through the public calls a request crosses and times each
// one as a span. Both print one JSON object on stdout for run.py and a
// readable summary on stderr. `probe` does a fixed amount of the
// benchmark's own work and exits: its wall time, spawn to reap, is the
// host-speed reference every timed metric is scaled by (see README.md).
//
// --programs names a JSON-lines file of {"name", "source", "options",
// "print"} objects (the kernel corpus or the serve-warm pool, rendered
// by run.py). serve-cold makes its programs here, with
// lang::generate_program. --corrupt-reference breaks the expected store
// of the first program, so a correct server must fail the check.
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "core/progcache.hpp"
#include "dfg/graph.hpp"
#include "lang/generator.hpp"
#include "lang/interp.hpp"
#include "lang/subroutines.hpp"
#include "machine/blob.hpp"
#include "machine/flags.hpp"
#include "machine/report.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "translate/options.hpp"

extern char** environ;

using namespace ctdf;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Live child processes, so a fatal error can stop and reap them.
std::mutex g_children_mu;
std::vector<pid_t> g_children;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::lock_guard<std::mutex> lk(g_children_mu);
  for (const pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::_Exit(1);
}

// ---------------------------------------------------------------------
// Arguments

struct Args {
  std::string mode;
  std::string ctdf;
  std::string workload;
  std::string programs;
  std::string work;
  std::string spans;
  /// Timed blocks by server workers, e.g. 1,2,1,2: alternating so both
  /// concurrencies see the host over the whole run.
  std::vector<int> blocks;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool corrupt_reference = false;
};

std::vector<int> int_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(std::stoi(item));
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench serve|trace --key=value ... | perfbench probe");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--ctdf") a.ctdf = val;
    else if (key == "--workload") a.workload = val;
    else if (key == "--programs") a.programs = val;
    else if (key == "--work") a.work = val;
    else if (key == "--spans") a.spans = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--blocks") a.blocks = int_list(val);
    else if (key == "--corrupt-reference") a.corrupt_reference = true;
    else die("unknown argument: " + arg);
  }
  if (a.workload != "kernels-run" && a.workload != "serve-warm" &&
      a.workload != "serve-cold")
    die("unknown workload: " + a.workload);
  if (a.workload != "serve-cold" && a.programs.empty())
    die(a.workload + " needs --programs");
  if (a.mode == "serve" && a.blocks.empty()) die("serve needs --blocks");
  return a;
}

// ---------------------------------------------------------------------
// Programs and their reference stores

std::string quoted(const std::string& s) {
  return "\"" + machine::json_escape(s) + "\"";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + quoted(items[i]);
  return out + "]";
}

/// One program with everything a request for it needs.
struct Program {
  std::string name;
  std::string source;
  std::vector<std::string> options;
  std::vector<std::string> print;
  /// The response's "store" object as the reference interpreter
  /// predicts it (serve renders the "print" names in request order).
  std::string expected_store;
  /// The request object after its "id" member.
  std::string request_body;

  [[nodiscard]] std::string request(std::uint64_t id) const {
    return "{\"id\": " + std::to_string(id) + ", " + request_body + "\n";
  }
};

using ProgramPtr = std::shared_ptr<const Program>;

/// Interprets `source` with the AST interpreter (never the dataflow
/// path) and renders the "print" variables the way serve does.
std::string reference_store(const std::string& source,
                            const std::vector<std::string>& print) {
  const auto expanded = lang::expand_subroutines_or_throw(source);
  const lang::Program prog = core::parse(expanded.source);
  const auto ref = lang::interpret(prog, 100'000'000);
  if (!ref.completed) throw std::runtime_error("reference run out of fuel");
  std::string out = "{";
  for (std::size_t i = 0; i < print.size(); ++i) {
    out += (i ? ", " : "") + quoted(print[i]) + ": ";
    const auto v = prog.symbols.lookup(print[i]);
    if (!v) {
      out += "null";
    } else if (prog.symbols.is_array(*v)) {
      out += '[';
      const std::int64_t n = prog.symbols.info(*v).array_size;
      for (std::int64_t k = 0; k < n; ++k)
        out += (k ? ", " : "") +
               std::to_string(lang::load_var(prog, ref.store, *v, k));
      out += ']';
    } else {
      out += std::to_string(lang::load_var(prog, ref.store, *v));
    }
  }
  return out + "}";
}

ProgramPtr make_program(std::string name, std::string source,
                        std::vector<std::string> options,
                        std::vector<std::string> print) {
  auto p = std::make_shared<Program>();
  p->name = std::move(name);
  p->source = std::move(source);
  p->options = std::move(options);
  p->print = std::move(print);
  p->expected_store = reference_store(p->source, p->print);
  p->request_body = "\"op\": \"run\", \"source\": " + quoted(p->source) +
                    ", \"options\": " + json_list(p->options) +
                    ", \"print\": " + json_list(p->print) + "}";
  return p;
}

std::vector<std::string> string_array(const serve::JsonValue* v) {
  std::vector<std::string> out;
  if (v && v->is_array())
    for (const auto& e : v->array) out.push_back(e.string);
  return out;
}

std::vector<ProgramPtr> load_programs(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<ProgramPtr> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string err;
    const auto doc = serve::json_parse(line, &err);
    if (!doc || !doc->is_object()) die(path + ": " + err);
    const auto* name = doc->find("name");
    const auto* source = doc->find("source");
    if (!name || !source) die(path + ": entry without name or source");
    out.push_back(make_program(name->string, source->string,
                               string_array(doc->find("options")),
                               string_array(doc->find("print"))));
  }
  if (out.empty()) die(path + ": no programs");
  return out;
}

/// The request stream of one workload. program(i) is a pure function
/// of (seed, i), so any thread may ask for any request.
class Workload {
 public:
  explicit Workload(const Args& args) : kind_(args.workload), seed_(args.seed) {
    if (kind_ != "serve-cold") pool_ = load_programs(args.programs);
    if (kind_ == "serve-warm") {
      // Zipf(1) over the pool in file order: entry r has weight 1/(r+1).
      double total = 0;
      for (std::size_t r = 0; r < pool_.size(); ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
    }
    if (args.corrupt_reference) {
      if (kind_ == "serve-cold") {
        corrupt_first_ = true;
      } else {
        auto broken = std::make_shared<Program>(*pool_.front());
        broken->expected_store += " ";
        pool_.front() = broken;
      }
    }
  }

  [[nodiscard]] const std::vector<ProgramPtr>& pool() const { return pool_; }
  [[nodiscard]] bool cold() const { return kind_ == "serve-cold"; }

  /// Index into pool() of request i (meaningless for serve-cold).
  [[nodiscard]] std::size_t pool_index(std::uint64_t i) const {
    const std::uint64_t h = support::splitmix64_mix(seed_ * support::kGoldenGamma + i);
    if (kind_ == "serve-warm") {
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      return std::min<std::size_t>(it - zipf_cdf_.begin(), pool_.size() - 1);
    }
    // kernels-run: rounds over the corpus, each in a seeded order.
    const std::size_t n = pool_.size();
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k) order[k] = k;
    support::SplitMix64 rng(support::splitmix64_mix(seed_ + 0x5bd1e995 * (i / n)));
    for (std::size_t k = n; k > 1; --k) std::swap(order[k - 1], order[rng.next_below(k)]);
    return order[i % n];
  }

  [[nodiscard]] ProgramPtr program(std::uint64_t i) const {
    if (!cold()) return pool_[pool_index(i)];
    auto p = cold_program(i);
    if (corrupt_first_ && i == 0) {
      auto broken = std::make_shared<Program>(*p);
      broken->expected_store += " ";
      return broken;
    }
    return p;
  }

 private:
  /// A distinct generated program per request: unstructured flow,
  /// aliasing and arrays on, short loops.
  [[nodiscard]] ProgramPtr cold_program(std::uint64_t i) const {
    lang::GeneratorOptions g;
    g.num_scalars = 4;
    g.num_arrays = 2;
    g.array_size = 8;
    g.allow_unstructured = true;
    g.allow_aliasing = true;
    std::uint64_t s = support::splitmix64_mix(seed_ ^ (i * support::kGoldenGamma));
    for (;; ++s) {
      const std::string text = lang::generate_program(g, s).to_string();
      const lang::Program parsed = core::parse(text);
      std::vector<std::string> print;
      for (const lang::VarId v : parsed.symbols.all_vars())
        print.push_back(parsed.symbols.name(v));
      try {
        return make_program("cold-" + std::to_string(i), text, {}, print);
      } catch (const std::runtime_error&) {
        // Out of reference fuel: draw the next seed.
      }
    }
  }

  std::string kind_;
  std::uint64_t seed_;
  std::vector<ProgramPtr> pool_;
  std::vector<double> zipf_cdf_;
  bool corrupt_first_ = false;
};

// ---------------------------------------------------------------------
// Response checks (frozen serve-response keys only)

/// The value of the response's last `"key": ` member, up to `end`.
/// "store" and "error" close every run response; "store" is also an
/// op-kind name inside the stats object, hence the last one.
std::string last_field(const std::string& resp, const char* key, const char* end) {
  const std::string k = std::string("\"") + key + "\": ";
  const auto b = resp.rfind(k);
  if (b == std::string::npos) return {};
  const auto start = b + k.size();
  const auto e = resp.find(end, start);
  return resp.substr(start, e == std::string::npos ? std::string::npos : e - start);
}

std::int64_t int_field(const std::string& resp, const char* key) {
  const std::string k = std::string("\"") + key + "\": ";
  const auto b = resp.find(k);
  if (b == std::string::npos) return -1;
  return std::strtoll(resp.c_str() + b + k.size(), nullptr, 10);
}

struct Check {
  bool ok = false;
  bool hit = false;
  std::int64_t cycles = -1;
};

Check check_response(const std::string& resp, std::uint64_t id,
                     const Program& p) {
  Check c;
  const std::string id_prefix = "{\"id\": " + std::to_string(id) + ",";
  c.hit = resp.find("\"disposition\": \"hit-memory\"") != std::string::npos;
  c.cycles = int_field(resp, "cycles");
  c.ok = resp.rfind(id_prefix, 0) == 0 &&
         resp.find("\"ok\": true") != std::string::npos &&
         last_field(resp, "store", ", \"error\": ") == p.expected_store;
  return c;
}

void report_wrong(const std::string& resp, std::uint64_t id, const Program& p) {
  std::fprintf(stderr,
               "perfbench: request %llu (%s) differs from the reference\n"
               "  expected store: %.300s\n  response: %.200s ... %.300s\n",
               static_cast<unsigned long long>(id), p.name.c_str(),
               p.expected_store.c_str(), resp.c_str(),
               resp.size() > 300 ? resp.c_str() + resp.size() - 300 : "");
}

// ---------------------------------------------------------------------
// Statistics

template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return static_cast<double>(v[lo]) +
         (static_cast<double>(v[hi]) - static_cast<double>(v[lo])) *
             (pos - static_cast<double>(lo));
}

template <typename T>
double median(std::vector<T> v) { return percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------
// Host-speed probe

/// A fixed amount of work of the kind the token machine spends its time
/// on: a hash map keyed by scattered integers, grown from empty so its
/// memory is freshly faulted in as a `ctdf run` process's is, a sort and
/// lookups. It calls no ctdf code, so a change to the program cannot
/// move it; only the host's speed can. Returns a checksum so the work is
/// kept.
std::uint64_t probe_work() {
  constexpr std::uint64_t kKeys = 150'000;
  std::uint64_t x = support::kGoldenGamma;
  std::uint64_t sum = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    x = support::splitmix64_mix(x + i);
    map[x % (2 * kKeys)] += i;
    keys.push_back(x);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t k : keys) {
    const auto it = map.find(k % (2 * kKeys));
    if (it != map.end()) sum += it->second;
  }
  return sum;
}

// ---------------------------------------------------------------------
// Child processes

struct Child {
  pid_t pid = -1;
  int to_child = -1;    ///< child's stdin (-1 if none)
  int from_child = -1;  ///< child's stdout (-1 if none)
};

/// Spawns argv with pipes on stdin/stdout (pipes=true) or with
/// /dev/null there.
Child spawn(const std::vector<std::string>& argv, bool pipes) {
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (pipes) {
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
      die("pipe failed");
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  Child c;
  const int rc = posix_spawn(&c.pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) die("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  {
    std::lock_guard<std::mutex> lk(g_children_mu);
    g_children.push_back(c.pid);
  }
  if (pipes) {
    ::close(in[0]);
    ::close(out[1]);
    c.to_child = in[1];
    c.from_child = out[0];
  }
  return c;
}

/// Waits for the child. Non-zero exit is fatal: every workload is chosen
/// so that nothing fails.
void reap(Child& c) {
  if (c.to_child >= 0) ::close(c.to_child);
  if (c.from_child >= 0) ::close(c.from_child);
  int status = 0;
  while (::waitpid(c.pid, &status, 0) < 0)
    if (errno != EINTR) die("waitpid failed");
  {
    std::lock_guard<std::mutex> lk(g_children_mu);
    std::erase(g_children, c.pid);
  }
  c.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    die("child exited abnormally (status " + std::to_string(status) + ")");
}

/// Path of this executable, for spawning `perfbench probe`.
std::string g_self;

/// Runs `perfbench probe` n times, one after another; appends each wall
/// time, spawn to reap, to `out`.
void run_probes(int n, std::vector<std::int64_t>& out) {
  for (int i = 0; i < n; ++i) {
    const std::int64_t t = now_ns();
    Child c = spawn({g_self, "probe"}, false);
    reap(c);
    out.push_back(now_ns() - t);
  }
}

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t w = ::write(fd, s.data() + off, s.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) die("write to ctdf serve failed");
    off += static_cast<std::size_t>(w);
  }
}

class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next response line; a silent server for 60 s is fatal.
  std::string next() {
    for (;;) {
      const auto eol = buf_.find('\n', pos_);
      if (eol != std::string::npos) {
        std::string line = buf_.substr(pos_, eol - pos_);
        pos_ = eol + 1;
        if (pos_ > (1u << 16)) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, 60'000);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) die("ctdf serve sent no response for 60 s");
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) die("ctdf serve closed its output early");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// serve: the closed-loop load generator

struct ServeChild {
  Child child;
  std::unique_ptr<LineReader> reader;
};

/// Spawns `ctdf serve` and makes it ready for timed load: serve-warm
/// compiles the whole pool; serve-cold waits for one stats round trip.
/// Returns the set-up time.
std::int64_t start_server(const Args& args, const Workload& w, int workers,
                          ServeChild& s) {
  const std::int64_t t0 = now_ns();
  s.child = spawn({args.ctdf, "serve", "--workers=" + std::to_string(workers)}, true);
  s.reader = std::make_unique<LineReader>(s.child.from_child);
  std::vector<std::string> primes;
  if (w.cold()) {
    primes.push_back("{\"id\": \"ready\", \"op\": \"stats\"}\n");
  } else {
    for (const auto& p : w.pool())
      primes.push_back("{\"id\": \"prime\", \"op\": \"compile\", \"source\": " +
                       quoted(p->source) + ", \"options\": " +
                       json_list(p->options) + "}\n");
  }
  std::string all;
  for (const auto& l : primes) all += l;
  write_all(s.child.to_child, all);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const std::string resp = s.reader->next();
    if (resp.find("\"ok\": true") == std::string::npos)
      die("priming request failed: " + resp.substr(0, 300));
  }
  return now_ns() - t0;
}

/// Peak resident set of a live process (VmHWM), in KiB. wait4's maxrss
/// of a posix_spawn'ed child is no use here: it also counts this
/// process's own memory, which the child shares until exec, and so grew
/// with the client's request history.
long peak_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  die("cannot read the peak RSS of ctdf serve");
}

/// Sends shutdown after the last response, then waits; returns the
/// server's peak RSS over the block, read before it shuts down.
long stop_server(ServeChild& s) {
  const long rss_kb = peak_rss_kb(s.child.pid);
  write_all(s.child.to_child, "{\"id\": \"bye\", \"op\": \"shutdown\"}\n");
  const std::string resp = s.reader->next();
  if (resp.find("\"ok\": true") == std::string::npos)
    die("shutdown failed: " + resp.substr(0, 300));
  reap(s.child);
  return rss_kb;
}

/// One timed block against one fresh server.
struct BlockResult {
  int workers = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;
  double seconds = 0;
  std::map<std::string, std::vector<std::int64_t>> by_program;  ///< latencies
  std::map<std::string, std::int64_t> cycles;  ///< per program name
  long rss_kb = 0;
  std::int64_t setup_ns = 0;
};

/// serve-cold reports sim_cycles as the geometric mean over its first
/// requests' programs: a sum over generated programs is dominated by the
/// few longest and moved 2-6% between seeds.
constexpr std::uint64_t kColdCyclesSample = 16384;

/// Host-speed probes in each gap: before the first block, between
/// blocks and after the last, so each block has probes on both sides.
constexpr int kProbesPerGap = 4;

/// One timed block against a fresh server: a closed loop keeping
/// 2 * workers requests outstanding (far below --max-queue, so nothing
/// is refused) until the block's time is up; then it waits for the last
/// response before sending shutdown. One thread both writes and reads:
/// the next request leaves as soon as a response arrives, so no
/// client-side thread hand-off sits in the loop.
BlockResult run_block(const Args& args, const Workload& w, int workers,
                      std::uint64_t first_id, double seconds) {
  BlockResult r;
  r.workers = workers;
  ServeChild s;
  r.setup_ns = start_server(args, w, workers, s);

  struct Sent {
    std::uint64_t id;
    ProgramPtr program;
    std::int64_t ns;
  };
  const std::size_t window = 2 * static_cast<std::size_t>(workers);
  std::deque<Sent> in_flight;
  std::uint64_t next_id = first_id;
  ProgramPtr next = w.program(next_id);
  const auto send = [&] {
    const std::string line = next->request(next_id);
    in_flight.push_back(Sent{next_id, next, now_ns()});
    write_all(s.child.to_child, line);
    next = w.program(++next_id);  // prepared while the server works
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (in_flight.size() < window) send();
  std::int64_t last_ns = start;
  while (!in_flight.empty()) {
    const std::string resp = s.reader->next();
    const std::int64_t t = now_ns();
    last_ns = t;
    const Sent sent = std::move(in_flight.front());
    in_flight.pop_front();
    if (t < deadline) send();
    const Check c = check_response(resp, sent.id, *sent.program);
    if (!c.ok) {
      if (r.failed < 3) report_wrong(resp, sent.id, *sent.program);
      ++r.failed;
    }
    if (c.hit) ++r.hits;
    r.by_program[sent.program->name].push_back(t - sent.ns);
    if (c.ok && (!w.cold() || sent.id < kColdCyclesSample))
      r.cycles.emplace(sent.program->name, c.cycles);
    ++r.requests;
  }
  r.seconds = static_cast<double>(last_ns - start) / 1e9;
  r.rss_kb = stop_server(s);
  return r;
}

void json_num(std::ostringstream& os, const char* key, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << '"' << key << "\": " << buf << (comma ? ", " : "");
}

template <typename T>
void json_ints(std::ostringstream& os, const std::vector<T>& v) {
  os << '[';
  for (std::size_t k = 0; k < v.size(); ++k) os << (k ? ", " : "") << v[k];
  os << ']';
}

/// Runs the blocks with probe gaps around each and prints every block's
/// raw figures; run.py scales them by the probes and aggregates.
int cmd_serve(const Args& args) {
  if (args.workload == "kernels-run") die("kernels-run has no serve phase");
  const Workload w(args);
  std::vector<std::vector<std::int64_t>> gaps(1);
  run_probes(kProbesPerGap, gaps.back());
  std::vector<BlockResult> blocks;
  std::uint64_t next_id = 0;
  for (const int workers : args.blocks) {
    blocks.push_back(run_block(args, w, workers, next_id,
                               args.seconds / static_cast<double>(args.blocks.size())));
    next_id += blocks.back().requests;
    std::fprintf(stderr, "  block w%d: %llu requests, server peak RSS %ld KiB\n", workers,
                 static_cast<unsigned long long>(blocks.back().requests),
                 blocks.back().rss_kb);
    gaps.emplace_back();
    run_probes(kProbesPerGap, gaps.back());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::int64_t> cycles;
  std::ostringstream os;
  os << "{\"blocks\": [";
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const BlockResult& b = blocks[k];
    attempted += b.requests;
    failed += b.failed;
    for (const auto& [name, c] : b.cycles) cycles.emplace(name, c);
    os << (k ? ", " : "") << "{";
    json_num(os, "workers", b.workers);
    json_num(os, "requests", static_cast<double>(b.requests));
    json_num(os, "failed", static_cast<double>(b.failed));
    json_num(os, "hits", static_cast<double>(b.hits));
    json_num(os, "seconds", b.seconds);
    json_num(os, "setup_ns", static_cast<double>(b.setup_ns));
    json_num(os, "rss_kb", static_cast<double>(b.rss_kb));
    os << "\"by_program\": {";
    bool first = true;
    for (const auto& [name, v] : b.by_program) {
      os << (first ? "" : ", ") << quoted(name) << ": ";
      first = false;
      json_ints(os, v);
    }
    os << "}}";
  }
  os << "], \"gaps\": [";
  for (std::size_t k = 0; k < gaps.size(); ++k) {
    os << (k ? ", " : "");
    json_ints(os, gaps[k]);
  }
  double sim_cycles = 0;
  for (const auto& [name, c] : cycles)
    sim_cycles += w.cold() ? std::log(std::max<double>(1, static_cast<double>(c)))
                           : static_cast<double>(c);
  if (w.cold() && !cycles.empty())
    sim_cycles = std::exp(sim_cycles / static_cast<double>(cycles.size()));
  os << "], ";
  json_num(os, "sim_cycles", sim_cycles);
  json_num(os, "sim_cycles_programs", static_cast<double>(cycles.size()));
  json_num(os, "attempted", static_cast<double>(attempted));
  json_num(os, "failed", static_cast<double>(failed), false);
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// trace: in-process spans around the public calls a request crosses

/// Root span of a request's step-by-step replay: the spans under it
/// add up to one handle_line.
constexpr const char* kReplay = "replay";

/// Spans kept in memory and written out at exit. Self times of the
/// spans under kReplay are folded per layer (the name's first
/// component) as spans close, so they cover every span even past the
/// storage cap.
class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t request;
  };

  explicit Tracer(std::size_t cap) : cap_(cap) { spans_.reserve(std::min<std::size_t>(cap, 1 << 16)); }

  void begin(const char* name, std::uint64_t request) {
    const char* root = open_.empty() ? name : open_.back().root;
    open_.push_back(Open{++next_id_, name, root, now_ns(), 0, request});
  }

  /// Closes the innermost span; returns its duration.
  std::int64_t end() {
    const std::int64_t t = now_ns();
    const Open o = open_.back();
    open_.pop_back();
    close(o, t);
    return t - o.start;
  }

  /// Records a finished child of the innermost open span (pipeline
  /// stages, whose times come from the PipelineTrace).
  void child(const char* name, std::int64_t start, std::int64_t dur) {
    close(Open{++next_id_, name, open_.back().root, start, 0, open_.back().request},
          start + dur);
  }

  [[nodiscard]] const std::map<std::string, std::int64_t>& layer_self() const {
    return layer_self_;
  }
  [[nodiscard]] std::size_t count() const { return next_id_; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"request\": %llu}\n",
                   s.id, s.parent, s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.request));
    std::fclose(f);
  }

 private:
  struct Open {
    std::uint32_t id;
    const char* name;
    const char* root;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t request;
  };

  void close(const Open& o, std::int64_t end) {
    const std::int64_t dur = end - o.start;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.root == kReplay) {
      const char* dot = std::strchr(o.name, '.');
      layer_self_[dot ? std::string(o.name, dot) : std::string(o.name)] +=
          dur - o.child_ns;
    }
    if (spans_.size() < cap_)
      spans_.push_back(Span{o.id, parent, o.name, o.start, end, o.request});
  }

  std::size_t cap_;
  std::uint32_t next_id_ = 0;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::map<std::string, std::int64_t> layer_self_;
};

/// Running mean.
struct Mean {
  double sum = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  [[nodiscard]] double value() const { return n ? sum / static_cast<double>(n) : 0; }
};

const char* stage_span(translate::Stage s) {
  using translate::Stage;
  switch (s) {
    case Stage::kParse: return "lang.parse";
    case Stage::kCfgBuild: return "cfg.build";
    case Stage::kDse: return "cfg.dse";
    case Stage::kLoopTransform: return "cfg.loop_transform";
    case Stage::kCover: return "translate.cover";
    case Stage::kSsa: return "cfg.ssa";
    case Stage::kDominance: return "cfg.dominance";
    case Stage::kControlDep: return "cfg.control_dep";
    case Stage::kSwitchPlace: return "translate.switch_place";
    case Stage::kTranslate: return "translate.translate";
    case Stage::kOptimize: return "dfg.optimize";
    case Stage::kFanout: return "dfg.fanout";
    case Stage::kValidate: return "dfg.validate";
    case Stage::kLower: return "machine.lower";
  }
  return "stage.unknown";
}

/// The request's options, applied the way serve decodes them.
struct Options {
  translate::TranslateOptions topt = translate::TranslateOptions::schema2_optimized();
  machine::MachineOptions mopt = machine::default_cli_machine_options();
};

Options apply_options(const std::vector<std::string>& flags) {
  Options o;
  for (const auto& f : flags) {
    const auto schema = translate::apply_schema_flag(o.topt, f);
    if (schema == translate::SchemaFlagParse::kApplied) continue;
    if (schema == translate::SchemaFlagParse::kBadValue ||
        machine::apply_machine_flag(o.mopt, f) != machine::MachineFlagParse::kApplied)
      die("bad option " + f);
  }
  return o;
}

class TraceRun {
 public:
  TraceRun(const Args& args, const Workload& w)
      : args_(args), w_(w), tracer_(1u << 18) {}

  int run() {
    probe_outside();
    probe_empty_run();
    prime();
    const core::CacheStats before = server_.cache().stats();
    const std::int64_t t0 = now_ns();
    const std::int64_t w1_end = t0 + static_cast<std::int64_t>(args_.seconds * 0.75e9);
    std::uint64_t i = 0;
    for (; now_ns() < w1_end; ++i) {
      const ProgramPtr p = w_.program(i);
      if (i % 2 == 0)
        plain(i, *p);
      else
        traced(i, *p);
    }
    const core::CacheStats after = server_.cache().stats();
    contended(i, t0 + static_cast<std::int64_t>(args_.seconds * 1e9));
    if (!args_.spans.empty()) tracer_.write(args_.spans);
    report(after, before, i);
    return 0;
  }

 private:
  /// tools.ctdf.outside_ns: `ctdf run` as a process minus the same
  /// compile + execute in-process, over the first few distinct programs.
  void probe_outside() {
    std::vector<ProgramPtr> progs;
    if (w_.cold())
      for (std::uint64_t k = 0; k < 9; ++k) progs.push_back(w_.program(k));
    else
      for (std::size_t k = 0; k < std::min<std::size_t>(9, w_.pool().size()); ++k)
        progs.push_back(w_.pool()[k]);
    for (std::size_t k = 0; k < progs.size(); ++k) {
      const Program& p = *progs[k];
      const std::string file = args_.work + "/outside-" + std::to_string(k) + ".ctdf";
      {
        std::ofstream out(file);
        out << p.source;
      }
      std::vector<std::string> argv = {args_.ctdf, "run", file};
      argv.insert(argv.end(), p.options.begin(), p.options.end());
      std::string print_flag = "--print=";
      for (std::size_t v = 0; v < p.print.size(); ++v)
        print_flag += (v ? "," : "") + p.print[v];
      argv.push_back(print_flag);
      std::vector<std::int64_t> wall, inproc;
      for (int rep = 0; rep < 3; ++rep) {
        std::int64_t t = now_ns();
        Child c = spawn(argv, false);
        reap(c);
        wall.push_back(now_ns() - t);
        t = now_ns();
        const Options o = apply_options(p.options);
        const auto expanded = lang::expand_subroutines_or_throw(p.source);
        const lang::Program prog = core::parse(expanded.source);
        auto cr = core::Pipeline(core::PipelineOptions(o.topt)).run(prog);
        const auto image = core::make_program_image(std::move(cr));
        const auto res = core::execute(image, o.mopt);
        inproc.push_back(now_ns() - t);
        if (!res.stats.completed) die("outside probe failed on " + p.name);
      }
      outside_.add(median(wall) - median(inproc));
    }
  }

  /// machine.empty_run_ns: the fixed cost of one core::execute.
  void probe_empty_run() {
    auto cr = core::Pipeline().run(std::string_view("var x;\nx := 1;\n"));
    const auto image = core::make_program_image(std::move(cr));
    const auto mopt = machine::default_cli_machine_options();
    std::vector<std::int64_t> v;
    for (int k = 0; k < 2000; ++k) {
      const std::int64_t t = now_ns();
      const auto res = core::execute(image, mopt);
      v.push_back(now_ns() - t);
      if (!res.stats.completed) die("empty run failed");
    }
    empty_run_ns_ = median(v);
  }

  /// serve-warm: compile the pool into both caches before timing, as
  /// the untraced run does.
  void prime() {
    if (args_.workload != "serve-warm") return;
    for (const auto& p : w_.pool()) {
      const std::string line = "{\"id\": \"prime\", \"op\": \"compile\", \"source\": " +
                               quoted(p->source) + ", \"options\": " +
                               json_list(p->options) + "}";
      if (server_.handle_line(line).find("\"ok\": true") == std::string::npos)
        die("priming failed for " + p->name);
      const Options o = apply_options(p->options);
      const core::PipelineOptions po(o.topt);
      const auto out = cache_.get(p->source, po);
      note_compile(out, po, p->source, ~0ull);
      (void)cache2_.get(p->source, po);
    }
  }

  void plain(std::uint64_t i, const Program& p) {
    std::string line = p.request(i);
    line.pop_back();
    const std::int64_t t = now_ns();
    const std::string resp = server_.handle_line(line);
    plain_ns_.add(static_cast<double>(now_ns() - t));
    verify(resp, i, p);
  }

  void traced(std::uint64_t i, const Program& p) {
    std::string line = p.request(i);
    line.pop_back();
    tracer_.begin("serve.handle_line", i);
    const std::string resp = server_.handle_line(line);
    const std::int64_t hl = tracer_.end();
    handle_line_.add(static_cast<double>(hl));
    response_bytes_.add(static_cast<double>(resp.size()));
    verify(resp, i, p);

    // The same request again, one public call at a time, in the order
    // handle_line makes them.
    tracer_.begin(kReplay, i);
    tracer_.begin("serve.json_parse", i);
    const auto doc = serve::json_parse(line);
    json_parse_.add(static_cast<double>(tracer_.end()));
    if (!doc) die("request does not parse");
    tracer_.begin("serve.options", i);
    const Options o = apply_options(string_array(doc->find("options")));
    options_.add(static_cast<double>(tracer_.end()));
    const core::PipelineOptions po(o.topt);
    const std::string& source = doc->find("source")->string;
    tracer_.begin("core.progcache.get", i);
    const std::int64_t get_start = now_ns();
    const auto out = cache_.get(source, po);
    if (out.disposition == core::CacheDisposition::kMiss) {
      // The compile inside get, split by its own stage records.
      std::int64_t at = get_start;
      for (const auto& r : out.trace.stages) {
        if (!r.ran) continue;
        tracer_.child(stage_span(r.stage), at, r.nanos);
        at += r.nanos;
      }
    }
    const std::int64_t get_ns = tracer_.end();
    get_.add(static_cast<double>(get_ns));
    exec_ops_.add(static_cast<double>(out.entry->image.exec.num_ops()));

    tracer_.begin("machine.run", i);
    const auto res = core::execute(out.entry->image, o.mopt);
    const std::int64_t run_ns = tracer_.end();
    run_.add(static_cast<double>(run_ns));
    run_ns_total_ += static_cast<double>(run_ns);
    ops_total_ += static_cast<double>(res.stats.ops_fired);
    ops_fired_.add(static_cast<double>(res.stats.ops_fired));
    cycles_.add(static_cast<double>(res.stats.cycles));
    matches_.add(static_cast<double>(res.stats.matches));
    contexts_.add(static_cast<double>(res.stats.contexts_allocated));
    mem_ops_.add(static_cast<double>(res.stats.mem_reads + res.stats.mem_writes));
    tracer_.begin("machine.report.render", i);
    (void)machine::render_stats_json(res.stats, o.mopt);
    render_.add(static_cast<double>(tracer_.end()));
    tracer_.end();  // replay

    // Calls handle_line makes inside get, or not at all, timed apart.
    tracer_.begin("probe", i);
    tracer_.begin("core.progcache.key", i);
    (void)core::program_cache_key(source, po);
    key_.add(static_cast<double>(tracer_.end()));
    std::int64_t compile_ns = 0;
    if (out.disposition == core::CacheDisposition::kMiss)
      compile_ns = note_compile(out, po, source, i);
    overhead_.add(static_cast<double>(get_ns - compile_ns));
    tracer_.end();  // probe
  }

  /// Per-compile records: the pipeline's own stage times, an
  /// uncontended Pipeline::run of the same source (returned), the blob
  /// serialization and the graph sizes.
  std::int64_t note_compile(const core::ProgramCache::Outcome& out,
                            const core::PipelineOptions& po,
                            const std::string& source, std::uint64_t request) {
    for (const auto& r : out.trace.stages)
      if (r.ran) stage_ns_[stage_span(r.stage)].add(static_cast<double>(r.nanos));
    const auto expanded = lang::expand_subroutines_or_throw(source);
    tracer_.begin("core.pipeline.run", request);
    const auto cr = core::Pipeline(po).run(expanded.source);
    const std::int64_t run_ns = tracer_.end();
    pipeline_run_.add(static_cast<double>(run_ns));
    if (const auto* r = cr.trace.find(translate::Stage::kCfgBuild))
      cfg_nodes_.add(static_cast<double>(r->size_out));
    const dfg::GraphStats gs = dfg::compute_stats(cr.translation.graph);
    dfg_nodes_.add(static_cast<double>(gs.nodes));
    dfg_arcs_.add(static_cast<double>(gs.arcs));
    tracer_.begin("machine.blob.serialize", request);
    const auto blob = machine::serialize(out.entry->image);
    serialize_.add(static_cast<double>(tracer_.end()));
    (void)blob;
    return run_ns;
  }

  void verify(const std::string& resp, std::uint64_t i, const Program& p) {
    ++attempted_;
    if (check_response(resp, i, p).ok) return;
    if (failed_ < 3) report_wrong(resp, i, p);
    ++failed_;
  }

  /// Two threads sharing one cache: get's lock wait shows when a miss
  /// compiles under the mutex (core.progcache.overhead_ns.w2).
  void contended(std::uint64_t first, std::int64_t end_ns) {
    std::atomic<std::uint64_t> next{first};
    std::mutex mu;
    const auto work = [&] {
      Mean local;
      while (now_ns() < end_ns) {
        const ProgramPtr p = w_.program(next.fetch_add(1));
        const Options o = apply_options(p->options);
        const core::PipelineOptions po(o.topt);
        std::int64_t t = now_ns();
        const auto out = cache2_.get(p->source, po);
        const std::int64_t get_ns = now_ns() - t;
        std::int64_t compile_ns = 0;
        if (out.disposition == core::CacheDisposition::kMiss) {
          t = now_ns();
          (void)core::Pipeline(po).run(p->source);
          compile_ns = now_ns() - t;
        }
        local.add(static_cast<double>(get_ns - compile_ns));
      }
      std::lock_guard<std::mutex> lk(mu);
      overhead_w2_.sum += local.sum;
      overhead_w2_.n += local.n;
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
  }

  void report(const core::CacheStats& after, const core::CacheStats& before,
              std::uint64_t requests) {
    std::map<std::string, double> m;
    m["serve.handle_line_ns"] = handle_line_.value();
    m["serve.json_parse_ns"] = json_parse_.value();
    m["serve.options_ns"] = options_.value();
    const double parts = json_parse_.value() + options_.value() + get_.value() +
                         run_.value() + render_.value();
    m["serve.glue_ns"] = handle_line_.value() - parts;
    m["serve.response_bytes"] = response_bytes_.value();
    m["core.progcache.key_ns"] = key_.value();
    m["core.progcache.get_ns"] = get_.value();
    m["core.progcache.overhead_ns"] = overhead_.value();
    m["core.progcache.overhead_ns.w2"] = overhead_w2_.value();
    const double lookups = static_cast<double>((after.hits - before.hits) +
                                               (after.misses - before.misses));
    m["core.progcache.hit_ratio"] =
        lookups ? static_cast<double>(after.hits - before.hits) / lookups : 0;
    m["core.progcache.evictions"] = static_cast<double>(after.evictions - before.evictions);
    m["core.pipeline.run_ns"] = pipeline_run_.value();
    for (const char* s : {"lang.parse", "cfg.build", "cfg.loop_transform", "cfg.dominance",
                          "cfg.control_dep", "translate.cover", "translate.switch_place",
                          "translate.translate", "dfg.optimize", "dfg.fanout",
                          "dfg.validate", "machine.lower"})
      m[std::string(s) + "_ns"] = stage_ns_[s].value();
    m["cfg.nodes"] = cfg_nodes_.value();
    m["dfg.nodes"] = dfg_nodes_.value();
    m["dfg.arcs"] = dfg_arcs_.value();
    m["machine.exec_ops"] = exec_ops_.value();
    m["machine.run_ns"] = run_.value();
    m["machine.ns_per_op"] = ops_total_ ? run_ns_total_ / ops_total_ : 0;
    m["machine.empty_run_ns"] = empty_run_ns_;
    m["machine.ops_fired"] = ops_fired_.value();
    m["machine.cycles"] = cycles_.value();
    m["machine.matches"] = matches_.value();
    m["machine.contexts_allocated"] = contexts_.value();
    m["machine.mem_ops"] = mem_ops_.value();
    m["machine.report.render_ns"] = render_.value();
    m["machine.blob.serialize_ns"] = serialize_.value();
    m["tools.ctdf.outside_ns"] = outside_.value();
    m["trace.overhead_pct"] =
        plain_ns_.value() ? (handle_line_.value() / plain_ns_.value() - 1) * 100 : 0;

    std::ostringstream os;
    os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"requests\": " << requests << ", \"traced\": " << handle_line_.n
       << ", \"spans\": " << tracer_.count() << ", \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os << (first ? "" : ", ") << quoted(k) << ": " << buf;
      first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());

    // Where a traced request's handle_line time went, by layer. The
    // serve row's residue is the glue no public call covers.
    const double hl = handle_line_.value();
    const auto pct = [&](double v) { return hl ? 100 * v / hl : 0; };
    std::fprintf(stderr, "  handle_line %.0f ns/request over %llu traced requests:\n",
                 hl, static_cast<unsigned long long>(handle_line_.n));
    const auto row = [&](const char* name, double v) {
      std::fprintf(stderr, "    %-28s %12.0f ns %6.1f%%\n", name, v, pct(v));
    };
    row("serve.json_parse", json_parse_.value());
    row("serve.options", options_.value());
    row("core.progcache.get", get_.value());
    row("machine.run", run_.value());
    row("machine.report.render", render_.value());
    row("serve.glue (residue)", m["serve.glue_ns"]);
    std::fprintf(stderr, "  layer self time per traced request (replay spans):\n");
    const double n = handle_line_.n ? static_cast<double>(handle_line_.n) : 1;
    for (const auto& [layer, ns] : tracer_.layer_self())
      std::fprintf(stderr, "    %-28s %12.0f ns\n", layer.c_str(), static_cast<double>(ns) / n);
    std::fprintf(stderr, "  tracing overhead vs untraced handle_line: %.2f%%\n",
                 m["trace.overhead_pct"]);
  }

  const Args& args_;
  const Workload& w_;
  Tracer tracer_;
  serve::Server server_;
  core::ProgramCache cache_;   ///< the replay's cache, mirroring the server's
  core::ProgramCache cache2_;  ///< shared by the contended threads
  Mean plain_ns_, handle_line_, response_bytes_, json_parse_, options_, key_,
      get_, overhead_, overhead_w2_, pipeline_run_, cfg_nodes_, dfg_nodes_,
      dfg_arcs_, exec_ops_, run_, ops_fired_, cycles_, matches_, contexts_,
      mem_ops_, render_, serialize_, outside_;
  std::map<std::string, Mean> stage_ns_;
  double run_ns_total_ = 0;
  double ops_total_ = 0;
  double empty_run_ns_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

int cmd_trace(const Args& args) {
  if (args.work.empty()) die("trace needs --work");
  const Workload w(args);
  TraceRun run(args, w);
  return run.run();
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc == 2 && std::string(argv[1]) == "probe") {
    std::printf("%llu\n", static_cast<unsigned long long>(probe_work()));
    return 0;
  }
  g_self = argv[0];
  const Args args = parse_args(argc, argv);
  try {
    if (args.mode == "serve") return cmd_serve(args);
    if (args.mode == "trace") return cmd_trace(args);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode: " + args.mode);
}
