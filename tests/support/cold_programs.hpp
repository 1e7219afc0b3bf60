// The programs of perfbench's serve-cold workload, in miniature: every
// request there is a distinct generated program with four scalars, two
// 8-cell arrays, unstructured control flow and aliasing, so each one
// misses the program cache and runs the whole compile pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/generator.hpp"

namespace ctdf::testing {

inline lang::GeneratorOptions serve_cold_generator_options() {
  lang::GeneratorOptions g;
  g.num_scalars = 4;
  g.num_arrays = 2;
  g.array_size = 8;
  g.allow_unstructured = true;
  g.allow_aliasing = true;
  return g;
}

/// The source texts of `n` serve-cold-style programs, seeds 1..n.
inline std::vector<std::string> serve_cold_sources(int n) {
  std::vector<std::string> out;
  const lang::GeneratorOptions g = serve_cold_generator_options();
  for (int seed = 1; seed <= n; ++seed)
    out.push_back(
        lang::generate_program(g, static_cast<std::uint64_t>(seed)).to_string());
  return out;
}

}  // namespace ctdf::testing
