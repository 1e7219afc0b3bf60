// Machine-shape explorer: run one program across the machine parameter
// space (width × memory latency × loop mode) and print the cycle grid.
//
//   $ ./pipeline_explorer [source-file]
//
// Without an argument it uses a doubly nested loop workload. This is
// the "measuring how much parallelism the compiler exposed" use case
// the paper's introduction motivates: an abstract machine whose
// processor count and memory behavior are knobs.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;

int main(int argc, char** argv) {
  std::string source;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    source = lang::corpus::nested_loops_source(6, 8);
  }

  lang::Program prog = core::parse(source);
  const auto interp = lang::interpret(prog);
  if (!interp.completed) {
    std::fprintf(stderr, "program does not terminate within fuel\n");
    return 1;
  }

  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  const auto gstats = dfg::compute_stats(cr.translation.graph);
  std::printf("dataflow graph: %zu operators, %zu arcs, %zu switches\n\n",
              gstats.nodes, gstats.arcs, gstats.switches);

  for (const auto mode :
       {machine::LoopMode::kBarrier, machine::LoopMode::kPipelined}) {
    std::printf("loop mode: %s\n", to_string(mode));
    std::printf("%10s", "width\\lat");
    for (const unsigned lat : {1u, 4u, 16u}) std::printf(" %10u", lat);
    std::printf("\n");
    for (const unsigned width : {1u, 2u, 4u, 8u, 0u}) {
      std::printf(width ? "%10u" : "  infinite", width);
      for (const unsigned lat : {1u, 4u, 16u}) {
        machine::MachineOptions mopt;
        mopt.loop_mode = mode;
        mopt.width = width;
        mopt.mem_latency = lat;
        const auto res = core::execute(cr.image, mopt);
        if (!res.stats.completed || !(res.store == interp.store)) {
          std::printf(" %10s", "FAIL");
        } else {
          std::printf(" %10llu",
                      static_cast<unsigned long long>(res.stats.cycles));
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("(cycles to completion; smaller is better. The width=infinite "
              "row is the\n pure-dataflow critical path.)\n");
  return 0;
}
