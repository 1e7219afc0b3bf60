// Numeric loop kernels (Livermore-loop style) across the schema ladder.
//
// The paper's motivation is FORTRAN-style scientific code; this example
// runs five classic kernel shapes — streaming map, reduction, serial
// recurrence, first difference, prefix sum — under Schema 1, optimized
// Schema 2, and the full Section 6 transform stack, and reports how
// much parallelism each translation exposes per kernel. The shapes
// matter: data-parallel kernels speed up dramatically, the serial
// recurrence barely moves (its critical path IS the recurrence).
#include <cstdio>
#include <string>

#include "core/compiler.hpp"

using namespace ctdf;

namespace {

struct Kernel {
  const char* name;
  std::string source;
  const char* result_var;
};

std::string header_decls(int n) {
  return "var k, q, r, t, acc;\narray x[" + std::to_string(n) +
         "], y[" + std::to_string(n) + "], z[" + std::to_string(n + 16) +
         "];\n" +
         // Deterministic input data.
         "k := 0;\n"
         "init: y[k] := k * 3 + 1; z[k] := k * 7 + 2;\n"
         "k := k + 1; if k < " + std::to_string(n) +
         " then goto init else goto zt;\n"
         "zt: z[k] := k + 5; k := k + 1; if k < " + std::to_string(n + 16) +
         " then goto zt else goto main;\nmain: k := 0;\n";
}

std::vector<Kernel> kernels(int n) {
  const std::string N = std::to_string(n);
  std::vector<Kernel> out;
  out.push_back({"hydro fragment",
                 header_decls(n) +
                     "q := 9; r := 3; t := 2;\n"
                     "l: x[k] := q + y[k] * (r * z[k + 10] + t * z[k + 11]);\n"
                     "k := k + 1; if k < " + N +
                     " then goto l else goto done;\n"
                     "done: acc := x[" + std::to_string(n - 1) + "];\n",
                 "acc"});
  out.push_back({"inner product",
                 header_decls(n) +
                     "l: acc := acc + z[k] * y[k];\n"
                     "k := k + 1; if k < " + N +
                     " then goto l else goto end;\n",
                 "acc"});
  out.push_back({"tridiag recurrence",
                 header_decls(n) +
                     "x[0] := 1;\nk := 1;\n"
                     "l: x[k] := z[k] % 7 * (y[k] - x[k - 1]) % 100;\n"
                     "k := k + 1; if k < " + N +
                     " then goto l else goto done;\n"
                     "done: acc := x[" + std::to_string(n - 1) + "];\n",
                 "acc"});
  out.push_back({"first difference",
                 header_decls(n) +
                     "l: x[k] := y[k + 1] - y[k];\n"
                     "k := k + 1; if k < " + std::to_string(n - 1) +
                     " then goto l else goto done;\n"
                     "done: acc := x[0] + x[" + std::to_string(n - 2) +
                     "];\n",
                 "acc"});
  out.push_back({"prefix sum",
                 header_decls(n) +
                     "l: acc := acc + y[k]; x[k] := acc;\n"
                     "k := k + 1; if k < " + N +
                     " then goto l else goto end;\n",
                 "acc"});
  return out;
}

}  // namespace

int main() {
  const int n = 24;
  machine::MachineOptions mopt;
  mopt.mem_latency = 8;
  mopt.loop_mode = machine::LoopMode::kPipelined;

  auto schema1 = translate::TranslateOptions::schema1();
  auto opt = translate::TranslateOptions::schema2_optimized();
  auto full = opt;
  full.eliminate_memory = true;
  full.parallel_reads = true;
  full.parallel_store_arrays = {"x"};

  std::printf("%-20s | %10s %10s %10s | %18s\n", "kernel (n=24)", "schema1",
              "schema2+opt", "full-stack", "speedup (1 -> full)");
  for (const Kernel& kern : kernels(n)) {
    const lang::Program prog = core::parse(kern.source);
    const auto ref = lang::interpret(prog, 10'000'000);
    if (!ref.completed) {
      std::printf("%-20s INTERP FAILED\n", kern.name);
      return 1;
    }
    std::uint64_t cycles[3] = {0, 0, 0};
    int i = 0;
    for (const auto& topt : {schema1, opt, full}) {
      const auto cr = core::Pipeline(topt).run(prog);
      const auto res = core::execute(cr.image, mopt);
      if (!res.stats.completed || !(res.store == ref.store)) {
        std::printf("%-20s FAILED under %s: %s\n", kern.name,
                    topt.describe().c_str(),
                    res.stats.error_detail.render().c_str());
        return 1;
      }
      cycles[i++] = res.stats.cycles;
    }
    std::printf("%-20s | %10llu %10llu %10llu | %17.1fx\n", kern.name,
                static_cast<unsigned long long>(cycles[0]),
                static_cast<unsigned long long>(cycles[1]),
                static_cast<unsigned long long>(cycles[2]),
                static_cast<double>(cycles[0]) /
                    static_cast<double>(cycles[2]));
    std::printf("%-20s   result %s = %lld (all translations agree)\n", "",
                kern.result_var,
                static_cast<long long>(core::read_scalar(
                    prog, ref.store, kern.result_var)));
  }
  std::printf("\nnote the shape: streaming kernels gain the most; the "
              "tridiagonal recurrence is\nbound by its loop-carried "
              "dependence and resists parallelization, as it should.\n");
  return 0;
}
