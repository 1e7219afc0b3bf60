// Shared helpers for the figure/table harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "dfg/passes.hpp"
#include "support/env.hpp"

namespace ctdf::bench {

// Env knob (CTDF_STAGE_STATS); see support/env.hpp.
using support::stage_stats_from_env;

struct Measurement {
  dfg::GraphStats graph;
  machine::RunStats run;
  std::size_t switches_placed = 0;
  std::size_t num_resources = 0;
  std::size_t replicates_inserted = 0;  ///< fan-out lowering's replicates
  std::size_t max_fanout = 0;           ///< of the final graph
  /// Per-stage compile-time breakdown of this measurement's compile.
  core::PipelineTrace compile_trace;
};

namespace detail {

/// On a verification failure the raw "WRONG RESULT" is useless for
/// debugging a generated program nobody has seen: print the options,
/// the program itself, and the first differing variables.
inline void explain_mismatch(const lang::Program& prog,
                             const translate::TranslateOptions& topt,
                             const lang::Store& expected,
                             const lang::Store& actual) {
  std::fprintf(stderr, "WRONG RESULT under %s\n", topt.describe().c_str());
  std::fprintf(stderr, "--- program ---\n%s--- store diff ---\n",
               prog.to_string().c_str());
  int shown = 0;
  for (lang::VarId v : prog.symbols.all_vars()) {
    if (shown >= 8) {
      std::fprintf(stderr, "  ... (further differences suppressed)\n");
      break;
    }
    const auto& name = prog.symbols.name(v);
    if (prog.symbols.is_array(v)) {
      const auto n = prog.symbols.info(v).array_size;
      for (std::int64_t i = 0; i < n; ++i) {
        const auto want = lang::load_var(prog, expected, v, i);
        const auto got = lang::load_var(prog, actual, v, i);
        if (want != got) {
          std::fprintf(stderr, "  %s[%lld]: expected %lld, got %lld\n",
                       name.c_str(), static_cast<long long>(i),
                       static_cast<long long>(want),
                       static_cast<long long>(got));
          if (++shown >= 8) break;
        }
      }
    } else {
      const auto want = lang::load_var(prog, expected, v);
      const auto got = lang::load_var(prog, actual, v);
      if (want != got) {
        std::fprintf(stderr, "  %s: expected %lld, got %lld\n", name.c_str(),
                     static_cast<long long>(want),
                     static_cast<long long>(got));
        ++shown;
      }
    }
  }
}

}  // namespace detail

/// Compiles and runs; verifies the result against the interpreter and
/// aborts loudly on any disagreement (a benchmark over a wrong program
/// is worse than no benchmark). Set CTDF_STAGE_STATS=1 to print each
/// compile's pipeline table to stderr.
inline Measurement measure(const lang::Program& prog,
                           const translate::TranslateOptions& topt,
                           const machine::MachineOptions& mopt) {
  const auto interp = lang::interpret(prog, 10'000'000);
  if (!interp.completed) {
    std::fprintf(stderr,
                 "benchmark program did not terminate\n--- program ---\n%s",
                 prog.to_string().c_str());
    std::abort();
  }
  const auto compiled = core::Pipeline(core::PipelineOptions(topt)).run(prog);
  const auto& tx = compiled.translation;
  if (stage_stats_from_env())
    std::fprintf(stderr, "pipeline stages (%s):\n%s",
                 topt.describe().c_str(), compiled.trace.table().c_str());
  auto res = core::execute(compiled.image, mopt);
  if (!res.stats.completed) {
    std::fprintf(stderr, "machine failed under %s: %s\n--- program ---\n%s",
                 topt.describe().c_str(),
                 res.stats.error_detail.render().c_str(),
                 prog.to_string().c_str());
    std::abort();
  }
  if (!(res.store == interp.store)) {
    detail::explain_mismatch(prog, topt, interp.store, res.store);
    std::abort();
  }
  Measurement m;
  m.graph = dfg::compute_stats(tx.graph);
  m.run = res.stats;
  m.switches_placed = tx.switches_placed;
  m.num_resources = tx.num_resources;
  m.replicates_inserted = tx.replicates_inserted;
  m.max_fanout = dfg::max_fanout(tx.graph);
  m.compile_trace = compiled.trace;
  return m;
}

inline void header(const char* title, const char* claim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title);
  std::printf("paper claim: %s\n", claim);
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
}

inline void footer(const char* observed) {
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
  std::printf("observed: %s\n\n", observed);
}

}  // namespace ctdf::bench
