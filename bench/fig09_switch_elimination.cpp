// F9 — Fig. 9: redundant switches impose needless ordering.
//
// Workload: x := x + 1; w := <slow chain>; <depth nested conditionals
// that never touch x>; x := 0. Under plain Schema 2 the access_x token
// crosses a switch per conditional level, so the second assignment to x
// waits for the predicate value w. The optimized construction sends
// access_x straight from the first assignment to the last; we measure
// the cycle at which `x := 0` actually fires — the direct form of the
// paper's "no order imposed between the calculation of the predicate
// and the second assignment to x".
#include "common.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;
using namespace ctdf::bench;

namespace {

struct XStoreResult {
  std::size_t switches = 0;
  std::uint64_t x_store_cycle = 0;
  std::uint64_t total_cycles = 0;
};

XStoreResult run_one(const lang::Program& prog,
                     const translate::TranslateOptions& topt) {
  const auto cr = core::Pipeline(topt).run(prog);
  const auto& tx = cr.translation;
  machine::MachineOptions mopt;
  mopt.mem_latency = 12;
  const auto res = core::execute(cr.image, mopt);
  if (!res.stats.completed) {
    std::fprintf(stderr, "failed: %s\n",
                 res.stats.error_detail.render().c_str());
    std::abort();
  }
  const auto ref = lang::interpret(prog);
  if (!(res.store == ref.store)) {
    detail::explain_mismatch(prog, topt, ref.store, res.store);
    std::abort();
  }
  XStoreResult out;
  out.switches = compute_stats(tx.graph).switches;
  out.total_cycles = res.stats.cycles;
  // The second store to x is the highest-numbered store labeled "x".
  for (dfg::NodeId n : tx.graph.all_nodes()) {
    const dfg::Node& node = tx.graph.node(n);
    if (node.kind == dfg::OpKind::kStore && node.label == "x" &&
        res.stats.first_fire_cycle[n.index()] != UINT64_MAX)
      out.x_store_cycle = res.stats.first_fire_cycle[n.index()];
  }
  return out;
}

}  // namespace

int main() {
  header("fig09_switch_elimination — bypassing conditionals (Sec. 4)",
         "'Eliminating this switch ... results in a more parallel program "
         "with no order imposed\nbetween the calculation of the predicate "
         "and the second assignment to x' (Fig. 9)");

  std::printf("'x := 0 fires at' — the cycle the second x-assignment "
              "executes (w ready ~cycle 50):\n");
  std::printf("%6s | %22s | %22s\n", "", "Schema 2 (naive)",
              "Schema 2 + Sec. 4 opt");
  std::printf("%6s | %9s %12s | %9s %12s\n", "depth", "switches",
              "x:=0 fires", "switches", "x:=0 fires");
  for (const int depth : {1, 2, 4, 8, 16, 32}) {
    const auto prog = core::parse(lang::corpus::nested_bypass_source(depth));
    const auto naive = run_one(prog, translate::TranslateOptions::schema2());
    const auto opt =
        run_one(prog, translate::TranslateOptions::schema2_optimized());
    std::printf("%6d | %9zu %12llu | %9zu %12llu\n", depth, naive.switches,
                static_cast<unsigned long long>(naive.x_store_cycle),
                opt.switches,
                static_cast<unsigned long long>(opt.x_store_cycle));
  }

  footer("under the naive schema `x := 0` fires only after the predicate "
         "chain (and later the\ndeeper the nesting); the optimized "
         "construction fires it at a constant early cycle,\nindependent of "
         "the conditionals — access_x bypasses the region entirely. Naive\n"
         "switch count grows ~3 per level, optimized ~2 (y and w only; "
         "never x).");
  return 0;
}
