// Unstructured control flow: gotos, a multi-exit loop, and an
// irreducible region (a branch into the middle of a loop).
//
// Demonstrates the full Section 3/4 pipeline on flow graphs that
// structured-language translators (like Veen & van den Born's, which
// the paper contrasts itself with) cannot handle: interval
// decomposition with node splitting ("code copying"), loop entry/exit
// insertion, and control-dependence-based switch placement.
#include <cstdio>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;

namespace {

void show(const char* name, const lang::Program& prog) {
  std::printf("=== %s ===\n%s\n", name, prog.to_string().c_str());

  const auto interp = lang::interpret(prog);
  for (const auto& [schema, options] :
       {std::pair{"schema2", translate::TranslateOptions::schema2()},
        std::pair{"schema2+opt",
                  translate::TranslateOptions::schema2_optimized()}}) {
    const auto cr = core::Pipeline(options).run(prog);
    const auto& tx = cr.translation;
    const auto res = core::execute(cr.image, {});
    if (!res.stats.completed) {
      std::printf("  %-12s FAILED: %s\n", schema,
                  res.stats.error_detail.render().c_str());
      continue;
    }
    const bool matches = res.store == interp.store;
    std::printf("  %-12s loops=%zu nodes-split=%d switches=%zu cycles=%llu "
                "iterations(ctx)=%llu  %s\n",
                schema, tx.loops, tx.nodes_split,
                dfg::compute_stats(tx.graph).switches,
                static_cast<unsigned long long>(res.stats.cycles),
                static_cast<unsigned long long>(res.stats.contexts_allocated),
                matches ? "== interpreter" : "MISMATCH!");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // A loop with two exits: control can leave from the middle or from
  // the bottom test.
  show("multi-exit loop", core::parse(R"(
var i, s;
l: i := i + 1;
s := s + i;
if s > 12 then goto out else goto next;
next:
if i < 10 then goto l else goto out;
out: s := s * 2;
)"));

  // The paper's Fig. 9 shape: a conditional x bypasses entirely.
  show("fig9 bypass", lang::corpus::fig9());

  // An irreducible region: the first branch jumps into the *middle* of
  // the loop, so interval decomposition must copy code first.
  show("irreducible two-entry loop",
       core::parse(lang::corpus::irreducible_source()));

  return 0;
}
