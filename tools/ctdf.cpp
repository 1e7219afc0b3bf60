// ctdf — command-line driver for the control-flow → dataflow compiler.
//
//   ctdf run <file> [options]       compile + execute on the simulator
//   ctdf interp <file>              reference sequential interpreter
//   ctdf dot <file> [options]       emit the dataflow graph (Graphviz)
//   ctdf dot-cfg <file>             emit the control-flow graph
//   ctdf explain <file> [options]   compilation report (loops, switches)
//   ctdf compare <file> [options]   schema ladder comparison table
//   ctdf serve [options]            NDJSON request loop (stdin or
//                                   --socket=PATH); see src/serve/serve.hpp
//                                   for the request/response protocol
//
// A compiled program is saved in one format, the versioned blob of
// machine/blob.hpp: `run --dump-blob` writes one, `run - --load-blob`
// executes one, and `serve --cache-dir` keeps them on disk (a `compile`
// request fills the cache without running). `dot`, `--dump-after` and
// `--dump-exec` are the readable views of a graph.
//
// Schema options:
//   --schema1               Schema 1 (single access token, sequential)
//   --cover=singleton|alias-class|component|unified  (default singleton)
//   --no-opt                disable Sec. 4 switch optimization
//   --mem-elim              Sec. 6.1 memory elimination
//   --dse                   liveness-based dead-store elimination
//   --opt=none|cleanup|all  dataflow-graph optimizer: `none` (the
//                           default: no optimize stage), `cleanup` (the
//                           six cleanup passes to fixpoint) or `all`
//                           (cleanup, then macro-op fusion of chains of
//                           up to 8 ops)
//   --max-fanout=N          bound destination lists (Monsoon: 2;
//                           0 = unlimited, 1 is rejected)
//   --par-reads             Sec. 6.2 read parallelization
//   --fig14=a,b             Sec. 6.3 store parallelization for arrays
//   --istructure=a,b        Sec. 6.3 write-once arrays on I-structures
//
// Pipeline options:
//   --stage-stats           print the per-stage pipeline table (time,
//                           artifact sizes, counters); run/explain
//   --dump-after=STAGE      print the named stage's artifact instead of
//                           the final graph (dot command), e.g.
//                           `ctdf dot f.ctdf --opt=cleanup
//                            --dump-after=translate` shows the graph
//                           before the cleanup passes. Stages: parse,
//                           cfg-build, dse, loop-transform, cover, ssa,
//                           dominance, control-dep, switch-place,
//                           translate, optimize, fanout, validate,
//                           lower (validate and lower always run; dse,
//                           ssa, optimize and fanout only when selected)
//   --ssa                   run the stats-only SSA stage (φ placement,
//                           visible via --stage-stats / --dump-after)
//   --dump-exec             print the lowered ExecProgram op table
//                           (frame slots, fan-out, literals); accepted
//                           by run (also with --load-blob), dot and
//                           explain
//
// Machine options:
//   --check=off|integrity   tagged dataflow-integrity checking (default
//                           off): validates single-assignment slot tags,
//                           I-structure write-once cells, split-phase
//                           response accounting on every delivery;
//                           violations fail the run with a typed
//                           integrity/* error code
//   --width=N               operators fired per cycle (0 = unlimited)
//   --mem-latency=N         split-phase memory round trip (default 4;
//                           1 to 65536)
//   --barrier               barrier loop control (default: pipelined)
//   --loop-bound=K          at most K iterations in flight (0 = unbounded)
//   --processors=N          N PEs, one op/cycle each (0 = abstract pool;
//                           at most 65536)
//   --network-latency=N     cross-PE token charge (default 2; at most
//                           65536)
//   --place-by-node         hash instructions to PEs (default: frames)
//   --sched-seed=N          randomized scheduling (0 = FIFO)
//   --max-cycles=N          abort with a cycle-cap error after N cycles
//   --frame-capacity=N      finite frame store: at most N live iteration
//                           contexts, loop entries stall (back-pressure)
//                           at the bound (0 = unbounded)
//   --print=x,y             print named variables from the final store
//   --stats-json            (run) emit RunStats + machine options +
//                           pipeline-stage counters as a JSON object on
//                           stdout instead of the usual summary/store
//
// Blob / cache options (run):
//   --dump-blob=PATH        write the compiled program as a versioned
//                           binary blob (machine/blob.hpp) after
//                           compilation, then run normally
//   --load-blob=PATH        execute a blob instead of compiling; the
//                           positional <file> is ignored (use `-`).
//                           Typed errors: unreadable / bad-magic /
//                           version-mismatch / truncated / hash-mismatch
//                           / malformed, exit code 2
//   --cache-dir=DIR         route compilation through the content-
//                           addressed program cache with a disk tier in
//                           DIR (core/progcache.hpp); adds a "cache"
//                           object to --stats-json and a cache line to
//                           --stage-stats
//   --cache-capacity=N      in-memory LRU entries (default 64)
//   --disk-capacity=N       disk-tier blob files (default 256)
//
// Serve options (serve; also accepts --cache-dir/--cache-capacity/
// --disk-capacity):
//   --socket=PATH           listen on a Unix stream socket instead of
//                           stdin/stdout
//   --workers=N             request pump worker threads, the only
//                           threads that run requests; pipelined
//                           requests run in parallel and are answered
//                           in request order (default 1, at most 1024)
//   --max-queue=N           admission bound; requests beyond N queued
//                           get a typed "overloaded" rejection with a
//                           retry_after_ms hint (default 256)
//   --drain-ms=N            graceful-drain window after shutdown /
//                           SIGTERM / EOF: queued requests still run
//                           until it closes, then are rejected as
//                           "draining" (default 2000)
//   --default-deadline-ms=N wall-clock budget applied to requests that
//                           carry no "deadline_ms" of their own
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/build.hpp"
#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "core/progcache.hpp"
#include "machine/blob.hpp"
#include "machine/exec.hpp"
#include "machine/flags.hpp"
#include "machine/report.hpp"
#include "serve/serve.hpp"
#include "support/json_writer.hpp"
#include "support/parse.hpp"

using namespace ctdf;

namespace {

using support::parse_unsigned;
using translate::split_csv;

struct Cli {
  std::string command;
  std::string file;
  translate::TranslateOptions topt = translate::TranslateOptions::schema2_optimized();
  machine::MachineOptions mopt;
  std::vector<std::string> print_vars;
  bool report = false;
  bool stats_json = false;
  bool stage_stats = false;
  bool compute_ssa = false;
  bool dump_exec = false;
  std::optional<core::Stage> dump_after;
  std::string dump_blob;
  std::string load_blob;
  std::string cache_dir;
  std::size_t cache_capacity = 64;
  std::size_t disk_capacity = 256;
  std::string socket_path;       // serve
  std::size_t serve_workers = 1;  // serve
  std::size_t serve_max_queue = 256;         // serve admission bound
  std::size_t serve_drain_ms = 2000;         // serve drain window
  std::int64_t serve_default_deadline = -1;  // serve per-request default
  bool ok = true;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string value_of(const std::string& arg) {
  const auto eq = arg.find('=');
  return eq == std::string::npos ? "" : arg.substr(eq + 1);
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  cli.mopt = machine::default_cli_machine_options();
  if (argc < 2) {
    cli.ok = false;
    return cli;
  }
  cli.command = argv[1];
  static constexpr std::string_view kCommands[] = {
      "run", "interp", "dot", "dot-cfg", "explain", "compare", "serve"};
  if (std::find(std::begin(kCommands), std::end(kCommands), cli.command) ==
      std::end(kCommands)) {
    cli.ok = false;
    return cli;
  }
  // `serve` reads programs off the protocol, not a positional file.
  int first_option = 3;
  if (cli.command == "serve") {
    first_option = 2;
  } else if (argc < 3) {
    cli.ok = false;
    return cli;
  } else {
    cli.file = argv[2];
  }
  for (int i = first_option; i < argc; ++i) {
    const std::string a = argv[i];
    // Schema-selection flags share one parser with the bench harnesses,
    // machine flags one with the serve front-end.
    switch (translate::apply_schema_flag(cli.topt, a)) {
      case translate::SchemaFlagParse::kApplied:
        continue;
      case translate::SchemaFlagParse::kBadValue:
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
        continue;
      case translate::SchemaFlagParse::kNotSchemaFlag:
        break;
    }
    {
      std::string detail;
      const auto parsed = machine::apply_machine_flag(cli.mopt, a, &detail);
      if (parsed == machine::MachineFlagParse::kApplied) continue;
      if (parsed == machine::MachineFlagParse::kBadValue) {
        if (detail.empty())
          std::fprintf(stderr, "bad value: %s\n", a.c_str());
        else
          std::fprintf(stderr, "bad value: %s (%s)\n", a.c_str(),
                       detail.c_str());
        cli.ok = false;
        continue;
      }
    }
    if (a == "--stage-stats") {
      cli.stage_stats = true;
    } else if (a == "--dump-exec") {
      cli.dump_exec = true;
    } else if (a == "--ssa") {
      cli.compute_ssa = true;
    } else if (starts_with(a, "--dump-after=")) {
      cli.dump_after = translate::stage_from_name(value_of(a));
      if (!cli.dump_after) {
        std::fprintf(stderr, "unknown stage: %s\n", value_of(a).c_str());
        cli.ok = false;
      }
    } else if (starts_with(a, "--dump-blob=")) {
      cli.dump_blob = value_of(a);
      if (cli.dump_blob.empty()) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      }
    } else if (starts_with(a, "--load-blob=")) {
      cli.load_blob = value_of(a);
      if (cli.load_blob.empty()) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      }
    } else if (starts_with(a, "--cache-dir=")) {
      cli.cache_dir = value_of(a);
      if (cli.cache_dir.empty()) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      }
    } else if (starts_with(a, "--cache-capacity=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v == 0) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.cache_capacity = static_cast<std::size_t>(v);
      }
    } else if (starts_with(a, "--disk-capacity=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v == 0) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.disk_capacity = static_cast<std::size_t>(v);
      }
    } else if (starts_with(a, "--socket=")) {
      cli.socket_path = value_of(a);
      if (cli.socket_path.empty()) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      }
    } else if (starts_with(a, "--workers=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v == 0 || v > 1u << 10) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.serve_workers = static_cast<std::size_t>(v);
      }
    } else if (starts_with(a, "--max-queue=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v == 0 || v > 1u << 20) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.serve_max_queue = static_cast<std::size_t>(v);
      }
    } else if (starts_with(a, "--drain-ms=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v > 1u << 24) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.serve_drain_ms = static_cast<std::size_t>(v);
      }
    } else if (starts_with(a, "--default-deadline-ms=")) {
      unsigned long long v = 0;
      if (!parse_unsigned(value_of(a), v) || v > 1ull << 40) {
        std::fprintf(stderr, "bad value: %s\n", a.c_str());
        cli.ok = false;
      } else {
        cli.serve_default_deadline = static_cast<std::int64_t>(v);
      }
    } else if (a == "--report") {
      cli.report = true;
      cli.mopt.record_profile = true;
    } else if (a == "--stats-json") {
      cli.stats_json = true;
    } else if (starts_with(a, "--print=")) {
      cli.print_vars = split_csv(value_of(a));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      cli.ok = false;
    }
  }
  return cli;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw support::CompileError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Prints the final store by variable name through a name→cell table
/// (core::named_cells, or a blob's): the --print variables in the order
/// given, else every scalar in declaration order.
void print_store(const Cli& cli, const std::vector<machine::NamedCell>& names,
                 const lang::Store& store) {
  const auto cell = [&](std::uint64_t idx) -> long long {
    return idx < store.cells.size()
               ? static_cast<long long>(store.cells[idx])
               : 0;
  };
  const auto print_cell = [&](const machine::NamedCell& c) {
    if (c.extent == 0) {
      std::printf("%s = %lld\n", c.name.c_str(), cell(c.base));
      return;
    }
    std::printf("%s = [", c.name.c_str());
    for (std::int64_t i = 0; i < c.extent; ++i)
      std::printf("%s%lld", i ? ", " : "",
                  cell(c.base + static_cast<std::uint64_t>(i)));
    std::printf("]\n");
  };
  if (!cli.print_vars.empty()) {
    for (const auto& name : cli.print_vars) {
      const auto it =
          std::find_if(names.begin(), names.end(),
                       [&](const machine::NamedCell& c) { return c.name == name; });
      if (it != names.end())
        print_cell(*it);
      else
        std::printf("%s = <undeclared>\n", name.c_str());
    }
    return;
  }
  for (const auto& c : names)
    if (c.extent == 0) print_cell(c);
}

/// Ends a run: a failed run reports its typed error on stderr and exits
/// 1; --stats-json documents were already written either way.
int finish_run(const machine::RunResult& res) {
  if (res.stats.completed) return 0;
  std::fprintf(stderr, "machine error: %s\n",
               res.stats.error_detail.render().c_str());
  return 1;
}

/// `ctdf run - --load-blob=p.blob`: execute a serialized program image;
/// no source text, no compilation. Typed blob errors exit with code 2.
int cmd_run_blob(const Cli& cli) {
  const machine::BlobReadResult read =
      machine::read_blob_file(cli.load_blob);
  if (!read.ok()) {
    std::fprintf(stderr, "blob error [%s]: %s\n",
                 machine::to_string(read.error), read.message.c_str());
    return 2;
  }
  if (cli.dump_exec) {
    std::fputs(machine::render(read.image.exec).c_str(), stdout);
    return 0;
  }
  const auto res = core::execute(read.image, cli.mopt);
  if (cli.stats_json) {
    std::string out;
    support::JsonWriter w(out, support::JsonWriter::Layout::kMultiLine);
    w.begin_block();
    w.key("machine");
    machine::write_stats_json(w, res.stats, cli.mopt);
    w.key("blob")
        .begin_object()
        .member("path", cli.load_blob)
        .member("blob_bytes", read.blob_bytes)
        .key("content_hash")
        .hex16(read.content_hash)
        .end_object()
        .end_object();
    std::printf("%s\n", out.c_str());
    return finish_run(res);
  }
  if (const int code = finish_run(res)) return code;
  std::printf("# blob %s | %llu bytes, hash %016llx | %s loop control\n",
              cli.load_blob.c_str(),
              static_cast<unsigned long long>(read.blob_bytes),
              static_cast<unsigned long long>(read.content_hash),
              to_string(cli.mopt.loop_mode));
  std::printf("# cycles=%llu ops=%llu ops/cycle=%.2f\n",
              static_cast<unsigned long long>(res.stats.cycles),
              static_cast<unsigned long long>(res.stats.ops_fired),
              res.stats.avg_parallelism());
  if (cli.report) std::fputs(machine::render_report(res.stats).c_str(), stdout);
  print_store(cli, read.image.names, res.store);
  return 0;
}

int cmd_serve(const Cli& cli) {
  serve::ServeOptions so;
  so.workers = cli.serve_workers;
  so.max_queue = cli.serve_max_queue;
  so.drain_ms = static_cast<std::int64_t>(cli.serve_drain_ms);
  so.default_deadline_ms = cli.serve_default_deadline;
  so.cache.capacity = cli.cache_capacity;
  so.cache.dir = cli.cache_dir;
  so.cache.disk_capacity = cli.disk_capacity;
  serve::Server server(so);
  if (!cli.socket_path.empty()) return server.serve_socket(cli.socket_path);
  // stdin mode runs the same overload-safe pump as the socket loop:
  // bounded admission, ordered responses, signal-aware drain.
  return server.serve_pipe(0, 1);
}

int cmd_interp(const Cli& cli, const lang::Program& prog) {
  const auto r = lang::interpret(prog, 100'000'000);
  if (!r.completed) {
    std::fprintf(stderr, "interpreter: fuel exhausted\n");
    return 1;
  }
  std::printf("completed in %llu statement steps\n",
              static_cast<unsigned long long>(r.steps));
  print_store(cli, core::named_cells(prog), r.store);
  return 0;
}

core::PipelineOptions pipeline_options(const Cli& cli) {
  core::PipelineOptions po(cli.topt);
  po.compute_ssa = cli.compute_ssa;
  po.dump_after = cli.dump_after;
  return po;
}

void print_stage_stats(const Cli& cli, const translate::PipelineTrace& trace,
                       const std::string& cache_line = "") {
  if (!cli.stage_stats) return;
  std::printf("pipeline stages (%s):\n%s", cli.topt.describe().c_str(),
              trace.table().c_str());
  if (!cache_line.empty()) std::printf("%s\n", cache_line.c_str());
}

void maybe_dump_exec(const Cli& cli, const machine::ProgramImage& image) {
  if (!cli.dump_exec) return;
  std::fputs(machine::render(image.exec).c_str(), stdout);
}

/// Pipeline-stage records (times, artifact sizes, counters) as a block
/// object — the compilation half of `ctdf run --stats-json`.
void write_pipeline_json(support::JsonWriter& w,
                         const translate::PipelineTrace& trace) {
  w.begin_block().member("total_nanos", trace.total_nanos());
  w.key("stages").begin_block_array();
  for (const auto& r : trace.stages) {
    w.begin_object()
        .member("stage", translate::to_string(r.stage))
        .member("ran", r.ran)
        .member("nanos", r.nanos)
        .member("size_in", r.size_in)
        .member("size_out", r.size_out);
    w.key("counters").begin_object();
    for (const auto& [name, value] : r.counters) w.member(name, value);
    w.end_object().end_object();
  }
  w.end_array().end_object();
}

int cmd_run(const Cli& cli, const std::string& source) {
  machine::ProgramImage image;
  translate::PipelineTrace trace;
  const bool cached = !cli.cache_dir.empty();
  core::CacheStats cache_stats;
  core::CacheDisposition disposition = core::CacheDisposition::kMiss;
  std::uint64_t key = 0;
  std::string cache_line;  // --stage-stats one-liner
  if (cached) {
    core::ProgramCache::Config cfg;
    cfg.capacity = cli.cache_capacity;
    cfg.dir = cli.cache_dir;
    cfg.disk_capacity = cli.disk_capacity;
    core::ProgramCache cache(cfg);
    const auto out = cache.get(source, pipeline_options(cli));
    image = out.entry->image;
    trace = out.trace;
    cache_stats = cache.stats();
    disposition = out.disposition;
    key = out.entry->key;
    char line[160];
    std::snprintf(line, sizeof line,
                  "cache: %s (key %016llx, blob %llu bytes)",
                  core::to_string(disposition),
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(out.entry->blob_bytes));
    cache_line = line;
  } else {
    auto cr = core::Pipeline(pipeline_options(cli)).run(source);
    trace = std::move(cr.trace);
    image = core::make_program_image(std::move(cr));
  }
  print_stage_stats(cli, trace, cache_line);
  maybe_dump_exec(cli, image);
  if (!cli.dump_blob.empty()) {
    const auto blob = machine::serialize(image);
    if (!machine::write_blob_file(cli.dump_blob, blob)) {
      std::fprintf(stderr, "blob error [unwritable]: cannot write %s\n",
                   cli.dump_blob.c_str());
      return 2;
    }
  }
  const auto res = core::execute(image, cli.mopt);
  if (cli.stats_json) {
    // Error runs still get a full, valid JSON document (with the typed
    // error object populated) — only the exit code differs.
    std::string out;
    support::JsonWriter w(out, support::JsonWriter::Layout::kMultiLine);
    w.begin_block();
    w.key("machine");
    machine::write_stats_json(w, res.stats, cli.mopt);
    w.key("pipeline");
    write_pipeline_json(w, trace);
    if (cached) {
      w.key("cache");
      core::write_cache_json(w, cache_stats, disposition, key);
    }
    w.end_object();
    std::printf("%s\n", out.c_str());
    return finish_run(res);
  }
  if (const int code = finish_run(res)) return code;
  std::printf("# %s | %s loop control, width %u, mem latency %u\n",
              cli.topt.describe().c_str(), to_string(cli.mopt.loop_mode),
              cli.mopt.width, cli.mopt.mem_latency);
  std::printf("# cycles=%llu ops=%llu ops/cycle=%.2f contexts=%llu "
              "reads=%llu writes=%llu\n",
              static_cast<unsigned long long>(res.stats.cycles),
              static_cast<unsigned long long>(res.stats.ops_fired),
              res.stats.avg_parallelism(),
              static_cast<unsigned long long>(res.stats.contexts_allocated),
              static_cast<unsigned long long>(res.stats.mem_reads),
              static_cast<unsigned long long>(res.stats.mem_writes));
  if (cli.report) std::fputs(machine::render_report(res.stats).c_str(), stdout);
  print_store(cli, image.names, res.store);
  return 0;
}

int cmd_dot(const Cli& cli, const std::string& source) {
  const auto cr = core::Pipeline(pipeline_options(cli)).run(source);
  if (cli.dump_exec) {
    maybe_dump_exec(cli, cr.image);
    return 0;
  }
  if (cli.dump_after) {
    if (cr.dump.empty()) {
      std::fprintf(stderr,
                   "stage '%s' did not run under these options "
                   "(see --stage-stats)\n",
                   translate::to_string(*cli.dump_after));
      return 1;
    }
    std::fputs(cr.dump.c_str(), stdout);
    return 0;
  }
  std::fputs(cr.translation.graph.to_dot().c_str(), stdout);
  return 0;
}

int cmd_dot_cfg(const Cli&, const lang::Program& prog) {
  const auto g = cfg::build_cfg_or_throw(prog);
  std::fputs(g.to_dot(prog.symbols).c_str(), stdout);
  return 0;
}

int cmd_compare(const Cli& cli, const lang::Program& prog) {
  const auto interp = lang::interpret(prog, 100'000'000);
  if (!interp.completed) {
    std::fprintf(stderr, "program does not terminate within fuel\n");
    return 1;
  }
  struct Variant {
    const char* name;
    translate::TranslateOptions topt;
  };
  std::vector<Variant> variants;
  variants.push_back({"schema1", translate::TranslateOptions::schema1()});
  variants.push_back({"schema2", translate::TranslateOptions::schema2()});
  variants.push_back(
      {"schema2+opt", translate::TranslateOptions::schema2_optimized()});
  {
    auto t = translate::TranslateOptions::schema2_optimized();
    t.dead_store_elimination = true;
    t.eliminate_memory = true;
    t.parallel_reads = true;
    t.opt_level = dfg::OptLevel::kCleanup;
    variants.push_back({"full-stack", t});
  }
  // Any array transforms the user asked for become one more rung.
  if (!cli.topt.parallel_store_arrays.empty() ||
      !cli.topt.istructure_arrays.empty()) {
    auto t = variants.back().topt;
    t.parallel_store_arrays = cli.topt.parallel_store_arrays;
    t.istructure_arrays = cli.topt.istructure_arrays;
    variants.push_back({"full+arrays", t});
  }

  std::printf("%-14s %8s %8s %8s %8s %8s %10s\n", "variant", "ops",
              "switches", "mem-rw", "cycles", "ctxs", "ops/cycle");
  for (const Variant& v : variants) {
    const auto cr = core::Pipeline(v.topt).run(prog);
    const auto res = core::execute(cr.image, cli.mopt);
    if (!res.stats.completed) {
      std::printf("%-14s FAILED: %s\n", v.name,
                  res.stats.error_detail.render().c_str());
      return 1;
    }
    if (!(res.store == interp.store)) {
      std::printf("%-14s WRONG RESULT (bug!)\n", v.name);
      return 1;
    }
    const auto g = dfg::compute_stats(cr.translation.graph);
    std::printf("%-14s %8zu %8zu %8llu %8llu %8llu %10.2f\n", v.name,
                g.nodes, g.switches,
                static_cast<unsigned long long>(res.stats.mem_reads +
                                                res.stats.mem_writes),
                static_cast<unsigned long long>(res.stats.cycles),
                static_cast<unsigned long long>(res.stats.contexts_allocated),
                res.stats.avg_parallelism());
  }
  std::printf("(all variants verified against the sequential interpreter)\n");
  return 0;
}

int cmd_explain(const Cli& cli, const std::string& source) {
  const auto cr = core::Pipeline(pipeline_options(cli)).run(source);
  print_stage_stats(cli, cr.trace);
  maybe_dump_exec(cli, cr.image);
  const auto& tx = cr.translation;
  const auto stats = dfg::compute_stats(tx.graph);
  std::printf("translation: %s\n", cli.topt.describe().c_str());
  std::printf("  CFG: %zu nodes, %zu edges\n", tx.cfg_nodes, tx.cfg_edges);
  std::printf("  loops: %zu (nodes split for reducibility: %d)\n", tx.loops,
              tx.nodes_split);
  std::printf("  resources (access tokens): %zu\n", tx.num_resources);
  std::printf("  switch placement: %zu needed\n", tx.switches_placed);
  std::printf("  fig14 store-parallelized loops: %zu\n",
              tx.loops_store_parallelized);
  if (cli.topt.dead_store_elimination)
    std::printf("  dead stores removed: %zu\n", tx.dead_stores_removed);
  if (cli.topt.opt_level != dfg::OptLevel::kNone)
    std::printf("  post-pass ops removed: %zu\n", tx.post_opt_removed);
  if (cli.topt.max_fanout >= 2)
    std::printf("  replicate nodes inserted: %zu\n", tx.replicates_inserted);
  std::printf("dataflow graph:\n");
  std::printf("  %zu operators, %zu arcs (%zu access-token arcs)\n",
              stats.nodes, stats.arcs, stats.dummy_arcs);
  std::printf("  switches=%zu merges=%zu synchs=%zu loads=%zu stores=%zu "
              "alu=%zu loop-nodes=%zu\n",
              stats.switches, stats.merges, stats.synchs, stats.loads,
              stats.stores, stats.alu_ops, stats.loop_nodes);
  std::printf("memory image: %zu cells, %zu I-structure regions\n",
              tx.memory_cells, tx.istructures.size());

  // Dataflow limit: one run at unlimited width.
  machine::MachineOptions wide = cli.mopt;
  wide.width = 0;
  const auto res = core::execute(cr.image, wide);
  if (res.stats.completed) {
    std::printf("dataflow limit: %llu cycles, %.2f ops/cycle, %llu "
                "iteration contexts\n",
                static_cast<unsigned long long>(res.stats.cycles),
                res.stats.avg_parallelism(),
                static_cast<unsigned long long>(res.stats.contexts_allocated));
  } else {
    std::printf("execution failed: %s\n",
                res.stats.error_detail.render().c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: ctdf <run|interp|dot|dot-cfg|explain|compare> <file> "
               "[options]\n"
               "       ctdf serve [options]\n"
               "(see the header of tools/ctdf.cpp for the full "
               "option list)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli = parse_cli(argc, argv);
  if (!cli.ok) {
    usage();
    return 2;
  }
  try {
    if (cli.command == "serve") return cmd_serve(cli);
    // A blob is a compiled artifact: no source is read or parsed (the
    // positional <file> is conventionally `-`).
    if (cli.command == "run" && !cli.load_blob.empty())
      return cmd_run_blob(cli);
    // run, dot and explain compile the file's own text, so their trace
    // and dumps include `parse` and the program cache keys the text as
    // `ctdf serve` keys a request's. Both paths expand FORTRAN-style
    // `sub`/`call` constructs.
    const std::string source = read_file(cli.file);
    if (cli.command == "run") return cmd_run(cli, source);
    if (cli.command == "dot") return cmd_dot(cli, source);
    if (cli.command == "explain") return cmd_explain(cli, source);
    if (cli.command == "interp") return cmd_interp(cli, core::parse(source));
    if (cli.command == "dot-cfg") return cmd_dot_cfg(cli, core::parse(source));
    return cmd_compare(cli, core::parse(source));  // parse_cli admits no other
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
