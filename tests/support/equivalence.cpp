#include "support/equivalence.hpp"

#include <sstream>

namespace ctdf::testing {

std::vector<SchemaConfig> standard_configs() {
  using translate::CoverStrategy;
  using translate::TranslateOptions;
  std::vector<SchemaConfig> out;

  const auto add = [&](std::string name, TranslateOptions topt,
                       machine::LoopMode mode, unsigned width) {
    machine::MachineOptions mopt;
    mopt.loop_mode = mode;
    mopt.width = width;
    mopt.mem_latency = 5;
    out.push_back({std::move(name), topt, mopt});
  };

  add("schema1", TranslateOptions::schema1(), machine::LoopMode::kBarrier, 0);
  add("schema2/barrier", TranslateOptions::schema2(),
      machine::LoopMode::kBarrier, 0);
  add("schema2/pipelined", TranslateOptions::schema2(),
      machine::LoopMode::kPipelined, 0);
  add("schema2/width2", TranslateOptions::schema2(),
      machine::LoopMode::kBarrier, 2);
  add("schema2opt/barrier", TranslateOptions::schema2_optimized(),
      machine::LoopMode::kBarrier, 0);
  add("schema2opt/pipelined", TranslateOptions::schema2_optimized(),
      machine::LoopMode::kPipelined, 0);

  {
    auto t = TranslateOptions::schema2_optimized();
    t.eliminate_memory = true;
    add("memelim/barrier", t, machine::LoopMode::kBarrier, 0);
    add("memelim/pipelined", t, machine::LoopMode::kPipelined, 0);
    t.parallel_reads = true;
    add("memelim+par-reads", t, machine::LoopMode::kPipelined, 0);
    add("memelim+par-reads/barrier", t, machine::LoopMode::kBarrier, 0);
  }
  {
    auto t = TranslateOptions::schema2();
    t.parallel_reads = true;
    add("schema2+par-reads", t, machine::LoopMode::kBarrier, 0);
  }
  add("schema3/alias-class",
      TranslateOptions::schema3(CoverStrategy::kAliasClass),
      machine::LoopMode::kBarrier, 0);
  add("schema3/unified", TranslateOptions::schema3(CoverStrategy::kUnified),
      machine::LoopMode::kPipelined, 0);
  add("schema3/component",
      TranslateOptions::schema3(CoverStrategy::kComponent),
      machine::LoopMode::kBarrier, 0);
  {
    auto t = TranslateOptions::schema3(CoverStrategy::kAliasClass);
    t.optimize_switches = true;
    t.parallel_reads = true;
    add("schema3opt", t, machine::LoopMode::kPipelined, 3);
  }
  {
    auto t = TranslateOptions::schema2_optimized();
    t.opt_level = dfg::OptLevel::kCleanup;
    add("post-opt/pipelined", t, machine::LoopMode::kPipelined, 0);
    t.eliminate_memory = true;
    add("post-opt+memelim", t, machine::LoopMode::kBarrier, 2);
  }
  {
    auto t = TranslateOptions::schema2_optimized();
    t.max_fanout = 2;  // Monsoon destination-list bound
    add("fanout2/pipelined", t, machine::LoopMode::kPipelined, 0);
  }
  {
    // Macro-op fusion (--opt=all): chains collapse into kMacro nodes;
    // stores must stay byte-identical to every other rung.
    auto t = TranslateOptions::schema2_optimized();
    t.opt_level = dfg::OptLevel::kAll;
    add("fuse/pipelined", t, machine::LoopMode::kPipelined, 0);
    t.eliminate_memory = true;
    add("fuse+memelim", t, machine::LoopMode::kBarrier, 2);
  }
  {
    // Everything at once: the full optimizing pipeline, fusion included.
    auto t = TranslateOptions::schema2_optimized();
    t.dead_store_elimination = true;
    t.eliminate_memory = true;
    t.parallel_reads = true;
    t.opt_level = dfg::OptLevel::kAll;
    t.max_fanout = 2;
    add("kitchen-sink", t, machine::LoopMode::kPipelined, 4);
  }
  {
    // --check=integrity configurations: every translation that reaches
    // here must also run violation-free under the tagged
    // dataflow-integrity checker. check_equivalence treats a checker
    // report as a failed run, so the whole fuzz corpus doubles as the
    // checker's false-positive gauntlet.
    add("integrity/barrier", TranslateOptions::schema2_optimized(),
        machine::LoopMode::kBarrier, 0);
    out.back().mopt.check = machine::CheckMode::kIntegrity;

    auto t = TranslateOptions::schema2_optimized();
    t.eliminate_memory = true;
    add("integrity/memelim-pipelined", t, machine::LoopMode::kPipelined, 0);
    out.back().mopt.check = machine::CheckMode::kIntegrity;

    auto p = TranslateOptions::schema2();
    p.parallel_reads = true;
    add("integrity/par-reads-2pe", p, machine::LoopMode::kPipelined, 0);
    out.back().mopt.check = machine::CheckMode::kIntegrity;
    out.back().mopt.processors = 2;

    // Fused macro firings must pass the tagged integrity checker too:
    // a macro is one match and one emitted token, so the slot-tag and
    // response accounting must be indistinguishable from the unfused
    // chain's head firing.
    auto f = TranslateOptions::schema2_optimized();
    f.eliminate_memory = true;
    f.opt_level = dfg::OptLevel::kAll;
    add("integrity/fused", f, machine::LoopMode::kPipelined, 0);
    out.back().mopt.check = machine::CheckMode::kIntegrity;
  }
  {
    // Armed-but-generous run budget: a ten-minute deadline and a token
    // allowance no fuzz program approaches. Engaging the budget checks
    // must not perturb a single store cell relative to every unarmed
    // rung above — the poll is observation, never scheduling.
    add("budget/generous-deadline", TranslateOptions::schema2_optimized(),
        machine::LoopMode::kPipelined, 0);
    out.back().mopt.budget.deadline_ms = 600'000;
    out.back().mopt.budget.max_tokens = 1ull << 60;

    auto t = TranslateOptions::schema2_optimized();
    t.eliminate_memory = true;
    add("budget/generous-memelim-barrier", t, machine::LoopMode::kBarrier, 0);
    out.back().mopt.budget.deadline_ms = 600'000;
    out.back().mopt.budget.max_tokens = 1ull << 60;
  }
  return out;
}

std::string check_equivalence(const lang::Program& prog,
                              const SchemaConfig& cfg) {
  const lang::InterpResult ref = lang::interpret(prog, 2'000'000);
  if (!ref.completed) return "";  // nothing to compare against

  try {
    const core::CompileResult cr = core::Pipeline(cfg.topt).run(prog);
    const auto res = core::execute(cr.image, cfg.mopt);
    if (!res.stats.completed)
      return cfg.name + ": machine did not complete: " +
             res.stats.error_detail.render();
    if (!(res.store == ref.store)) {
      std::ostringstream os;
      os << cfg.name << ": final store differs from interpreter;";
      for (std::size_t i = 0; i < ref.store.cells.size(); ++i) {
        if (ref.store.cells[i] != res.store.cells[i])
          os << " cell[" << i << "] expected " << ref.store.cells[i]
             << " got " << res.store.cells[i];
      }
      os << "\nprogram:\n" << prog.to_string();
      return os.str();
    }
  } catch (const std::exception& e) {
    return cfg.name + ": exception: " + e.what() + "\nprogram:\n" +
           prog.to_string();
  }
  return "";
}

std::string check_all_configs(const lang::Program& prog) {
  for (const SchemaConfig& cfg : standard_configs()) {
    std::string err = check_equivalence(prog, cfg);
    if (!err.empty()) return err;
  }
  return "";
}

}  // namespace ctdf::testing
