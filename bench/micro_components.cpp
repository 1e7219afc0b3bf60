// MICRO — google-benchmark microbenchmarks of the library's hot
// components: frontend, CFG analyses, translation, and the simulator's
// token-matching engine. The machine benchmarks compile once, outside
// the timed loop, and time core::execute on the pipeline's program
// image (CompileResult::image), so their rows exclude lowering.
#include <benchmark/benchmark.h>

#include "cfg/build.hpp"
#include "cfg/control_dep.hpp"
#include "cfg/dominance.hpp"
#include "cfg/intervals.hpp"
#include "core/compiler.hpp"
#include "dfg/pass_manager.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "machine/exec.hpp"
#include "machine/report.hpp"
#include "serve/serve.hpp"
#include "support/json_writer.hpp"

using namespace ctdf;

namespace {

lang::Program gen(int stmts, std::uint64_t seed = 42) {
  lang::GeneratorOptions o;
  o.allow_unstructured = true;
  o.num_scalars = 6;
  o.max_toplevel_stmts = stmts;
  return lang::generate_program(o, seed);
}

void BM_Parse(benchmark::State& state) {
  const auto src = gen(static_cast<int>(state.range(0))).to_string();
  for (auto _ : state)
    benchmark::DoNotOptimize(lang::parse_or_throw(src));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Parse)->Range(8, 256)->Complexity(benchmark::oN);

void BM_BuildCfg(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(cfg::build_cfg_or_throw(prog));
}
BENCHMARK(BM_BuildCfg)->Range(8, 256);

void BM_Postdominators(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  const auto g = cfg::build_cfg_or_throw(prog);
  for (auto _ : state)
    benchmark::DoNotOptimize(cfg::DomTree(g, cfg::DomDirection::kPostdom));
  state.SetComplexityN(static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_Postdominators)->Range(8, 256)->Complexity(benchmark::oN);

void BM_ControlDeps(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  const auto g = cfg::build_cfg_or_throw(prog);
  const cfg::DomTree pdom(g, cfg::DomDirection::kPostdom);
  for (auto _ : state)
    benchmark::DoNotOptimize(cfg::ControlDeps(g, pdom));
}
BENCHMARK(BM_ControlDeps)->Range(8, 256);

void BM_LoopTransform(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto g = cfg::build_cfg_or_throw(prog);
    support::DiagnosticEngine d;
    benchmark::DoNotOptimize(cfg::transform_loops(g, d));
  }
}
BENCHMARK(BM_LoopTransform)->Range(8, 128);

void BM_TranslateSchema2(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  const core::Pipeline pipeline(translate::TranslateOptions::schema2());
  for (auto _ : state) benchmark::DoNotOptimize(pipeline.run(prog));
}
BENCHMARK(BM_TranslateSchema2)->Range(8, 128);

void BM_TranslateOptimized(benchmark::State& state) {
  const auto prog = gen(static_cast<int>(state.range(0)));
  const core::Pipeline pipeline(
      translate::TranslateOptions::schema2_optimized());
  for (auto _ : state) benchmark::DoNotOptimize(pipeline.run(prog));
}
BENCHMARK(BM_TranslateOptimized)->Range(8, 128);

void BM_MachineTokenThroughput(benchmark::State& state) {
  // Simulated-operator throughput on a loop-heavy workload; reports
  // operator firings per second of host time.
  const auto prog = core::parse(lang::corpus::nested_loops_source(
      static_cast<int>(state.range(0)), 8));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    const auto res = core::execute(cr.image, mopt);
    ops += res.stats.ops_fired;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineTokenThroughput)->Range(2, 16);

void BM_LowerExecProgram(benchmark::State& state) {
  // Graph → ExecProgram lowering cost (the pipeline's `lower` stage):
  // one-time per compilation, amortized over every machine run.
  const auto prog = gen(static_cast<int>(state.range(0)));
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  const dfg::Graph& g = cr.translation.graph;
  for (auto _ : state) benchmark::DoNotOptimize(machine::lower(g));
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.SetComplexityN(static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_LowerExecProgram)->Range(8, 128)->Complexity(benchmark::oN);

void BM_MachineMatchThroughput(benchmark::State& state) {
  // Steady-state token-matching rate of the ETS frame store: tokens
  // landing in frame slots per second of host time (serial engine).
  const auto prog = core::parse(lang::corpus::nested_loops_source(
      static_cast<int>(state.range(0)), 8));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    const auto res = core::execute(cr.image, mopt);
    matches += res.stats.matches;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["matches/s"] = benchmark::Counter(
      static_cast<double>(matches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineMatchThroughput)->Range(2, 16);

void BM_MachineIdleCycles(benchmark::State& state) {
  // Latency-bound regime: barrier loops over high-latency split-phase
  // memory serialize the iterations, so most simulated cycles deliver
  // only a handful of tokens and the run is dominated by the pending-
  // queue bookkeeping (bucket reuse + bitmap jumps in the calendar
  // queue).
  const auto prog = core::parse(lang::corpus::nested_loops_source(12, 12));
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kBarrier;
    mopt.mem_latency = 16;
    const auto res = core::execute(cr.image, mopt);
    ops += res.stats.ops_fired;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
// Arg 1 names the event policy; it keeps the row name the recorded
// BENCH_machine.json baseline uses.
BENCHMARK(BM_MachineIdleCycles)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FrameAlloc(benchmark::State& state) {
  // Context-churn regime: deep pipelined nested loops allocate and
  // retire an iteration frame per trip; the engine hands retired frames
  // back to the arena freelist. Reports iteration contexts started per
  // second.
  const auto prog = core::parse(lang::corpus::nested_loops_source(16, 16));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t ctxs = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    const auto res = core::execute(cr.image, mopt);
    ctxs += res.stats.contexts_allocated;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ctxs/s"] = benchmark::Counter(
      static_cast<double>(ctxs), benchmark::Counter::kIsRate);
}
// Arg 1 keeps the recorded baseline's row name, as above.
BENCHMARK(BM_FrameAlloc)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MachineMultiPE(benchmark::State& state) {
  // Multi-PE issue: four processing elements, each firing at most one
  // ready operator per cycle, so most cycles leave work waiting in the
  // ready queue. Tokens are placed by context (arg 0) or by node
  // (arg 1). Reports operator firings per second of host time.
  const auto prog = core::parse(lang::corpus::nested_loops_source(16, 8));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    mopt.processors = 4;
    mopt.placement = state.range(0) ? machine::Placement::kByNode
                                    : machine::Placement::kByContext;
    const auto res = core::execute(cr.image, mopt);
    ops += res.stats.ops_fired;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineMultiPE)->Arg(0)->Arg(1);

void BM_MachineBudgetOverhead(benchmark::State& state) {
  // Run-budget overhead gate on the token-throughput workload. Arg 0:
  // no budget — the firing loop takes its pre-budget path. Arg 1: an
  // armed-but-unreachable budget (a ten-minute deadline plus a token
  // ceiling far above the program's footprint), so the strided clock
  // poll and the token compare both run on every firing but never
  // trip. The delta against arg 0 is the price every deadline-carrying
  // serve request pays; the bench gate holds it to a few percent
  // (scripts/bench_machine.py, --budget-overhead-floor).
  const auto prog = core::parse(lang::corpus::nested_loops_source(8, 8));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    if (state.range(0)) {
      mopt.budget.deadline_ms = 600'000;
      mopt.budget.max_tokens = 1ull << 60;
    }
    const auto res = core::execute(cr.image, mopt);
    ops += res.stats.ops_fired;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
// Median-of-five like the other few-percent overhead gates.
BENCHMARK(BM_MachineBudgetOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_MachineIntegrityOverhead(benchmark::State& state) {
  // Tagged dataflow-integrity checking overhead gate, on a workload
  // that keeps real memory traffic (no mem-elim, so the race check and
  // split-phase accounting are exercised, not just the slot tags).
  // Arg 0: --check=off — by construction a no-op (the shadow tag rows
  // are never allocated, the per-delivery branch tests one bool), so
  // this row must track the pre-checking baseline exactly. Arg 1:
  // --check=integrity — the documented-multiplier row the bench gate
  // holds (scripts/bench_machine.py, --integrity-overhead-floor).
  const auto prog = core::parse(lang::corpus::nested_loops_source(8, 8));
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  std::uint64_t ops = 0, checks = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    mopt.processors = 2;
    if (state.range(0)) mopt.check = machine::CheckMode::kIntegrity;
    const auto res = core::execute(cr.image, mopt);
    ops += res.stats.ops_fired;
    checks += res.stats.integrity_checks;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["checks/run"] = benchmark::Counter(
      static_cast<double>(checks), benchmark::Counter::kAvgIterations);
}
// Same median-of-five discipline as the budget gate: the off row
// gates at ~0%, so single-run noise would swamp the signal.
BENCHMARK(BM_MachineIntegrityOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_MachineFusedChains(benchmark::State& state) {
  // Macro-op fusion speedup gate on the fusion-friendly workload: a
  // deep loop whose body is one long dependent chain of literal-operand
  // arithmetic. Arg 0: --opt=cleanup. Arg 1: --opt=all — the
  // chain collapses into macro ops, so each iteration is one token
  // match plus N ALU steps instead of N matches. Host time per
  // simulated run is the metric; the bench gate holds the 1-vs-0 ratio
  // above a floor (scripts/bench_machine.py, --fusion-speedup-floor).
  const auto prog = core::parse(lang::corpus::chain_loop_source(400, 24));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  topt.opt_level =
      state.range(0) ? dfg::OptLevel::kAll : dfg::OptLevel::kCleanup;
  const auto cr = core::Pipeline(topt).run(prog);
  std::uint64_t runs = 0, ops = 0;
  for (auto _ : state) {
    machine::MachineOptions mopt;
    mopt.loop_mode = machine::LoopMode::kPipelined;
    const auto res = core::execute(cr.image, mopt);
    ++runs;
    ops += res.stats.ops_fired;
    benchmark::DoNotOptimize(res.stats.cycles);
  }
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
  state.counters["ops/run"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kAvgIterations);
}
// The 1-vs-0 ratio gates a speedup floor: median-of-five interleaved
// repetitions, like the other ratio gates.
BENCHMARK(BM_MachineFusedChains)
    ->Arg(0)
    ->Arg(1)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);


void BM_ServeWarmVsCold(benchmark::State& state) {
  // The compile-once economics of `ctdf serve`, measured end to end
  // through the request path: arg 0 serves every request from a cold
  // server (each one pays parse → 13 stages → lower), arg 1 serves the
  // same request from a primed server (each one pays a cache hit plus
  // execution). scripts/bench_machine.py gates warm/cold at
  // --serve-warm-speedup-floor; both rows come from one run, so the
  // ratio is host-independent.
  const std::string source = lang::corpus::independent_chains_source(6, 8);
  const std::string request =
      "{\"op\": \"run\", \"source\": \"" + support::json_escape(source) +
      "\"}";
  const bool warm = state.range(0) == 1;
  serve::Server shared;
  if (warm) {
    const std::string primed = shared.handle_line(request);
    benchmark::DoNotOptimize(primed);
  }
  std::uint64_t requests = 0;
  for (auto _ : state) {
    if (warm) {
      const std::string response = shared.handle_line(request);
      benchmark::DoNotOptimize(response);
    } else {
      serve::Server cold;
      const std::string response = cold.handle_line(request);
      benchmark::DoNotOptimize(response);
    }
    ++requests;
  }
  state.counters["req/s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeWarmVsCold)->Arg(0)->Arg(1);

void BM_EndToEnd(benchmark::State& state) {
  // Full pipeline: parse → CFG → loop transform → analyses → DFG →
  // lower → simulate, on the paper's running example.
  const auto src = lang::corpus::running_example_source();
  for (auto _ : state) {
    const auto prog = lang::parse_or_throw(src);
    const auto cr =
        core::Pipeline(translate::TranslateOptions::schema2_optimized())
            .run(prog);
    benchmark::DoNotOptimize(core::execute(cr.image, {}));
  }
}
BENCHMARK(BM_EndToEnd);

}  // namespace

BENCHMARK_MAIN();
