// T-SIZE — Section 3's size claim: "if E is the number of edges in the
// control-flow graph and V is the number of variables, then the size of
// the dataflow graph is O(E · V)."
//
// We sweep E (statements) and V (variables) independently under plain
// Schema 2 and report dummy-arc counts, plus the optimized
// construction's counts, which grow only with actual references.
#include "common.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;
using namespace ctdf::bench;

namespace {

/// `stmts` updates cycling over the first `touched` of `vars` declared
/// variables: E grows with stmts, V with vars, references with touched.
std::string workload(int vars, int touched, int stmts) {
  std::string src = "var";
  for (int v = 0; v < vars; ++v)
    src += (v ? ", v" : " v") + std::to_string(v);
  src += ";\n";
  for (int s = 0; s < stmts; ++s) {
    const int v = s % touched;
    src += "  v" + std::to_string(v) + " := v" + std::to_string(v) + " + 1;\n";
    if (s % 4 == 3)  // add forks so edges, not just nodes, grow
      src += "  if v" + std::to_string(v) + " > " + std::to_string(s) +
             " { v" + std::to_string(v) + " := 0; }\n";
  }
  return src;
}

std::size_t arcs(const std::string& src,
                 const translate::TranslateOptions& topt,
                 std::size_t* cfg_edges = nullptr) {
  const auto tx = core::Pipeline(topt).run(core::parse(src)).translation;
  if (cfg_edges) *cfg_edges = tx.cfg_edges;
  return compute_stats(tx.graph).dummy_arcs;
}

}  // namespace

int main() {
  header("tab_graph_size — Schema 2 graphs are O(E · V) (Sec. 3)",
         "'corresponding to every edge in the control-flow graph there is "
         "one edge in the dataflow\ngraph for each variable in the program'");

  std::printf("sweep V (E fixed at 32 statements, 8 referenced vars):\n");
  std::printf("%8s %10s %18s %18s %14s\n", "V", "E(cfg)", "schema2 arcs",
              "optimized arcs", "arcs/(E*V)");
  for (const int vars : {8, 16, 32, 64}) {
    std::size_t e = 0;
    const auto src = workload(vars, 8, 32);
    const auto naive = arcs(src, translate::TranslateOptions::schema2(), &e);
    const auto opt =
        arcs(src, translate::TranslateOptions::schema2_optimized());
    std::printf("%8d %10zu %18zu %18zu %14.2f\n", vars, e, naive, opt,
                static_cast<double>(naive) / (static_cast<double>(e) * vars));
  }

  std::printf("\nsweep E (V fixed at 16 variables, all referenced):\n");
  std::printf("%8s %10s %18s %18s %14s\n", "stmts", "E(cfg)", "schema2 arcs",
              "optimized arcs", "arcs/(E*V)");
  for (const int stmts : {8, 16, 32, 64, 128}) {
    std::size_t e = 0;
    const auto src = workload(16, 16, stmts);
    const auto naive = arcs(src, translate::TranslateOptions::schema2(), &e);
    const auto opt =
        arcs(src, translate::TranslateOptions::schema2_optimized());
    std::printf("%8d %10zu %18zu %18zu %14.2f\n", stmts, e, naive, opt,
                static_cast<double>(naive) / (static_cast<double>(e) * 16));
  }

  footer("schema2 dummy arcs track E·V with a near-constant factor across "
         "both sweeps (the paper's\nbound); the optimized construction's "
         "size follows actual references instead — unreferenced\nvariables "
         "cost nothing.");
  return 0;
}
