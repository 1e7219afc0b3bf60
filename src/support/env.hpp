// Environment-variable knobs of the bench harnesses and the fuzz
// sweep, parsed in one place.
#pragma once

#include <cstdlib>

namespace ctdf::support {

/// CTDF_STAGE_STATS=1 makes the bench harnesses print each compile's
/// per-stage pipeline table to stderr (off by default).
inline bool stage_stats_from_env() {
  const char* v = std::getenv("CTDF_STAGE_STATS");
  return v && *v && *v != '0';
}

/// CTDF_FUZZ_SEEDS=N sizes the random-program fuzz sweep (tests with
/// the `fuzz` ctest label). Defaults to `fallback` — the quick local
/// sweep; CI's dedicated fuzz job raises it an order of magnitude.
inline unsigned fuzz_seeds_from_env(unsigned fallback) {
  const char* v = std::getenv("CTDF_FUZZ_SEEDS");
  if (!v || !*v) return fallback;
  const long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<unsigned>(n) : fallback;
}

}  // namespace ctdf::support
