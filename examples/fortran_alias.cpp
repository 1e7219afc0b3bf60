// Aliasing and covers (paper Section 5).
//
// Reproduces the FORTRAN example: SUBROUTINE F(X, Y, Z) called as
// F(A, B, A) and F(C, D, D), giving the alias structure
//   [X] = {X, Z},  [Y] = {Y, Z},  [Z] = {X, Y, Z},
// then translates one body under the three cover strategies and shows
// the parallelism/synchronization tradeoff the paper describes: the
// singleton cover maximizes parallelism but operations on Z collect
// three access tokens; the unified cover needs one token per operation
// but serializes everything.
#include <cstdio>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"

using namespace ctdf;

int main() {
  const lang::Program prog = lang::corpus::fortran_alias();
  std::printf("source (first call site, where X and Z share storage):\n%s\n",
              prog.to_string().c_str());

  const auto x = *prog.symbols.lookup("x");
  const auto y = *prog.symbols.lookup("y");
  const auto z = *prog.symbols.lookup("z");
  std::printf("alias classes: [x]={x,z} -> %zu, [y]={y,z} -> %zu, "
              "[z]={x,y,z} -> %zu\n\n",
              prog.symbols.alias_class(x).size(),
              prog.symbols.alias_class(y).size(),
              prog.symbols.alias_class(z).size());

  const auto interp = lang::interpret(prog);

  std::printf("%-14s %9s %10s %8s %8s %10s\n", "cover", "tokens",
              "synch-ops", "cycles", "ops", "ops/cycle");
  for (const auto strategy : {translate::CoverStrategy::kSingleton,
                              translate::CoverStrategy::kAliasClass,
                              translate::CoverStrategy::kComponent,
                              translate::CoverStrategy::kUnified}) {
    auto options = translate::TranslateOptions::schema3(strategy);
    options.optimize_switches = true;
    const auto cr = core::Pipeline(options).run(prog);
    const auto& tx = cr.translation;
    machine::MachineOptions mopt;
    mopt.mem_latency = 8;
    const auto res = core::execute(cr.image, mopt);
    if (!res.stats.completed) {
      std::printf("%-14s FAILED: %s\n", to_string(strategy),
                  res.stats.error_detail.render().c_str());
      return 1;
    }
    if (!(res.store == interp.store)) {
      std::printf("%-14s WRONG RESULT\n", to_string(strategy));
      return 1;
    }
    const auto stats = dfg::compute_stats(tx.graph);
    std::printf("%-14s %9zu %10zu %8llu %8llu %10.2f\n", to_string(strategy),
                tx.num_resources, stats.synchs,
                static_cast<unsigned long long>(res.stats.cycles),
                static_cast<unsigned long long>(res.stats.ops_fired),
                res.stats.avg_parallelism());
  }

  std::printf("\nfinal store agrees with the sequential interpreter for "
              "every cover; x = %lld\n",
              static_cast<long long>(
                  core::read_scalar(prog, interp.store, "x")));
  return 0;
}
