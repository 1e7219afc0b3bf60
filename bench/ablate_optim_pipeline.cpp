// A-PIPE — the cumulative optimization ladder: starting from naive
// Schema 2 and adding each technique of the paper (plus the repo's
// extra cleanup passes) one at a time, on a mixed workload suite.
// Shows where each rung's win comes from.
#include "common.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;
using namespace ctdf::bench;

int main() {
  header("ablate_optim_pipeline — the cumulative optimization ladder",
         "each rung composes the previous ones: Schema 2 → Sec. 4 switches "
         "→ DSE → Sec. 6.1\nmemory elimination → Sec. 6.2 reads → graph "
         "post-passes");

  struct Rung {
    const char* name;
    translate::TranslateOptions topt;
  };
  std::vector<Rung> rungs;
  {
    auto t = translate::TranslateOptions::schema2();
    rungs.push_back({"schema2 (naive)", t});
    t.optimize_switches = true;
    rungs.push_back({"+switch opt (Sec.4)", t});
    t.dead_store_elimination = true;
    rungs.push_back({"+dead stores", t});
    t.eliminate_memory = true;
    rungs.push_back({"+mem elim (6.1)", t});
    t.parallel_reads = true;
    rungs.push_back({"+par reads (6.2)", t});
    t.opt_level = dfg::OptLevel::kCleanup;
    rungs.push_back({"+graph passes", t});
  }

  const struct {
    const char* name;
    lang::Program prog;
  } workloads[] = {
      {"running example", lang::corpus::running_example()},
      {"nested loops 4x6",
       core::parse(lang::corpus::nested_loops_source(4, 6))},
      {"read heavy 12", core::parse(lang::corpus::read_heavy_source(12))},
      {"redundant stores", core::parse(R"(
var a, b, c;
a := 1; a := 2; a := 3;
b := a * 2; b := a * 3;
c := a + b;
)")},
  };

  machine::MachineOptions mopt;
  mopt.mem_latency = 8;
  mopt.loop_mode = machine::LoopMode::kPipelined;

  for (const auto& w : workloads) {
    std::printf("%s:\n", w.name);
    std::printf("  %-22s %7s %8s %8s %8s %10s\n", "rung", "ops", "switch",
                "mem-rw", "cycles", "ops/cycle");
    for (const Rung& r : rungs) {
      const auto m = measure(w.prog, r.topt, mopt);
      std::printf("  %-22s %7zu %8zu %8llu %8llu %10.2f\n", r.name,
                  m.graph.nodes, m.graph.switches,
                  static_cast<unsigned long long>(m.run.mem_reads +
                                                  m.run.mem_writes),
                  static_cast<unsigned long long>(m.run.cycles),
                  m.run.avg_parallelism());
    }
    std::printf("\n");
  }

  footer("switch optimization shrinks the graph, DSE removes dead writes, "
         "memory elimination\nremoves the split-phase round-trips (the "
         "biggest cycle win), read parallelization\nhelps read-heavy "
         "statements, and the graph passes tidy the remainder.");
  return 0;
}
