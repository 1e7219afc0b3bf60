// Quickstart: compile the paper's running example (Fig. 1) under
// Schema 1, Schema 2, and the optimized Section-4 construction, run
// each on the simulated dataflow machine, and compare.
//
//   $ ./quickstart [--dot]
//
// With --dot, the Schema 2 dataflow graph is printed as Graphviz (the
// dotted arcs are the access tokens, exactly as drawn in the paper's
// figures).
#include <cstdio>
#include <cstring>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;

int main(int argc, char** argv) {
  const bool want_dot = argc > 1 && std::strcmp(argv[1], "--dot") == 0;

  // The paper's running example:
  //   l: y := x + 1; x := x + 1; if x < 5 then goto l else goto end
  const lang::Program prog = lang::corpus::running_example();
  std::printf("source program:\n%s\n", prog.to_string().c_str());

  struct Variant {
    const char* name;
    translate::TranslateOptions options;
  };
  const Variant variants[] = {
      {"Schema 1 (sequential)", translate::TranslateOptions::schema1()},
      {"Schema 2 (per-variable tokens)",
       translate::TranslateOptions::schema2()},
      {"Schema 2 + switch optimization (Sec. 4)",
       translate::TranslateOptions::schema2_optimized()},
      {"+ memory elimination (Sec. 6.1)", [] {
         auto o = translate::TranslateOptions::schema2_optimized();
         o.eliminate_memory = true;
         return o;
       }()},
  };

  std::printf("%-42s %8s %8s %8s %10s\n", "variant", "nodes", "switches",
              "cycles", "ops/cycle");
  for (const Variant& v : variants) {
    const auto cr = core::Pipeline(v.options).run(prog);
    machine::MachineOptions mopt;  // unlimited width: the dataflow limit
    const auto result = core::execute(cr.image, mopt);
    if (!result.stats.completed) {
      std::printf("%-42s FAILED: %s\n", v.name,
                  result.stats.error_detail.render().c_str());
      return 1;
    }
    const auto stats = dfg::compute_stats(cr.translation.graph);
    std::printf("%-42s %8zu %8zu %8llu %10.2f\n", v.name, stats.nodes,
                stats.switches,
                static_cast<unsigned long long>(result.stats.cycles),
                result.stats.avg_parallelism());

    const std::int64_t x = core::read_scalar(prog, result.store, "x");
    const std::int64_t y = core::read_scalar(prog, result.store, "y");
    if (x != 5 || y != 5) {
      std::printf("unexpected result x=%lld y=%lld\n",
                  static_cast<long long>(x), static_cast<long long>(y));
      return 1;
    }
  }
  std::printf("\nall variants computed x = 5, y = 5 "
              "(matching sequential semantics)\n");

  if (want_dot) {
    const auto cr =
        core::Pipeline(translate::TranslateOptions::schema2()).run(prog);
    std::printf("\n%s", cr.translation.graph.to_dot().c_str());
  }
  return 0;
}
