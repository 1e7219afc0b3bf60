// Array parallelization (paper Section 6.3, Fig. 14).
//
// A producer loop fills an array, a consumer loop reduces it. Four
// translations of the same program:
//   1. naive        — every array op serializes on access_a
//   2. fig14        — stores in the producer loop are parallelized by
//                     token duplication + a completion chain
//   3. I-structures — the array is write-once: reads defer in memory,
//                     producer and consumer loops overlap
//   4. everything   — fig14 + I-structures + memory elimination
#include <cstdio>
#include <string>

#include "core/compiler.hpp"

using namespace ctdf;

namespace {

std::string stencil_source(int n) {
  std::string src = "var i, j, s;\narray a[" + std::to_string(n + 2) + "];\n";
  src += "produce: i := i + 1; a[i] := i * i; if i < " + std::to_string(n) +
         " then goto produce else goto consume;\n";
  src += "consume: j := j + 1; s := s + a[j]; if j < " + std::to_string(n) +
         " then goto consume else goto end;\n";
  return src;
}

}  // namespace

int main() {
  const int n = 24;
  const lang::Program prog = core::parse(stencil_source(n));
  const auto interp = lang::interpret(prog);

  machine::MachineOptions mopt;
  mopt.mem_latency = 16;  // make the split-phase memory visible
  mopt.loop_mode = machine::LoopMode::kPipelined;

  struct Variant {
    const char* name;
    translate::TranslateOptions options;
  };
  // Scalar memory traffic (i, j, s) dominates unless eliminated, so the
  // array transforms are shown on top of Sec. 6.1 memory elimination.
  auto naive = translate::TranslateOptions::schema2_optimized();
  auto base = naive;
  base.eliminate_memory = true;
  auto fig14 = base;
  fig14.parallel_store_arrays = {"a"};
  auto istruct = base;
  istruct.istructure_arrays = {"a"};

  std::printf("producer/consumer over a[%d], mem latency %u cycles, "
              "pipelined loops\n\n", n, mopt.mem_latency);
  std::printf("%-16s %8s %8s %10s %12s\n", "variant", "cycles", "ops",
              "ops/cycle", "deferred-rd");
  for (const Variant& v :
       {Variant{"naive", naive}, Variant{"+mem-elim", base},
        Variant{"+fig14", fig14}, Variant{"+istructures", istruct}}) {
    const auto cr = core::Pipeline(v.options).run(prog);
    const auto res = core::execute(cr.image, mopt);
    if (!res.stats.completed) {
      std::printf("%-16s FAILED: %s\n", v.name,
                  res.stats.error_detail.render().c_str());
      return 1;
    }
    if (!(res.store == interp.store)) {
      std::printf("%-16s WRONG RESULT\n", v.name);
      return 1;
    }
    std::printf("%-16s %8llu %8llu %10.2f %12llu\n", v.name,
                static_cast<unsigned long long>(res.stats.cycles),
                static_cast<unsigned long long>(res.stats.ops_fired),
                res.stats.avg_parallelism(),
                static_cast<unsigned long long>(res.stats.deferred_reads));
  }

  std::printf("\ns = %lld (all variants agree with the interpreter)\n",
              static_cast<long long>(
                  core::read_scalar(prog, interp.store, "s")));
  return 0;
}
