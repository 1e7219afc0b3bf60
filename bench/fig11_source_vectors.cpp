// F11 — Fig. 11: the source-vector construction. The direct
// construction wires tokens producer→consumer without redundant
// switches or single-source merges; we measure how many merge/switch
// operators it emits versus the naive Schema 2 wiring, and the
// end-to-end construction time.
#include <chrono>

#include "common.hpp"
#include "lang/generator.hpp"

using namespace ctdf;
using namespace ctdf::bench;

int main() {
  header("fig11_source_vectors — direct construction from source vectors",
         "'The dataflow graph so constructed exhibits all of the data "
         "parallelism of Schema 2,\nand gains additional parallelism through "
         "the suppression of redundant switches' (Sec. 4.2);\n'a join with a "
         "single source is equivalent to no operator'");

  std::printf("%8s | %9s %8s %8s | %9s %8s %8s | %10s\n", "stmts",
              "nodes", "switch", "merge", "nodes", "switch", "merge",
              "build-us");
  std::printf("%8s | %27s | %27s |\n", "", "naive Schema 2",
              "Fig. 10+11 optimized");

  for (const int stmts : {8, 16, 32, 64, 128}) {
    lang::GeneratorOptions gopt;
    gopt.allow_unstructured = true;
    gopt.num_scalars = 6;
    gopt.max_toplevel_stmts = stmts;
    dfg::GraphStats naive{}, opt{};
    double micros = 0;
    const int kSeeds = 5;
    const auto acc = [](dfg::GraphStats& into, const dfg::GraphStats& s) {
      into.nodes += s.nodes;
      into.switches += s.switches;
      into.merges += s.merges;
    };
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      const auto prog = lang::generate_program(gopt, 1000 + s);
      const auto naive_cr =
          core::Pipeline(translate::TranslateOptions::schema2()).run(prog);
      acc(naive, dfg::compute_stats(naive_cr.translation.graph));
      const auto t0 = std::chrono::steady_clock::now();
      const auto cr =
          core::Pipeline(translate::TranslateOptions::schema2_optimized())
              .run(prog);
      const auto t1 = std::chrono::steady_clock::now();
      micros += std::chrono::duration<double, std::micro>(t1 - t0).count();
      acc(opt, dfg::compute_stats(cr.translation.graph));
    }
    std::printf("%8d | %9zu %8zu %8zu | %9zu %8zu %8zu | %10.1f\n", stmts,
                naive.nodes / kSeeds, naive.switches / kSeeds,
                naive.merges / kSeeds, opt.nodes / kSeeds,
                opt.switches / kSeeds, opt.merges / kSeeds, micros / kSeeds);
  }

  footer("the direct construction emits a fraction of the naive switch and "
         "merge count\n(single-source joins become wires), with construction "
         "time scaling near-linearly.");
  return 0;
}
