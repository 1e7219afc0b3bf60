// Shared CLI-style parsing of machine options.
//
// The ctdf CLI and the serve front-end (src/serve/) accept the same
// `--check=…`/`--mem-latency=…`/… machine flags — the CLI from argv,
// serve from a per-request JSON "options" array. One parser keeps the two
// surfaces identical, the same way translate::apply_schema_flag is
// shared between the CLI and the bench harnesses.
#pragma once

#include <string>

#include "machine/options.hpp"

namespace ctdf::machine {

enum class MachineFlagParse : std::uint8_t {
  kNotMachineFlag,  ///< not recognized; try the next flag family
  kApplied,
  kBadValue,
};

/// Applies one `--flag[=value]` style argument to `o`. On kBadValue,
/// `*detail` (when given) receives a short complaint suitable for
/// appending to a "bad value: ARG" diagnostic (may stay empty).
/// Numeric values are parsed strictly: signs, embedded junk, and
/// overflow are kBadValue, never silent wrapping. `--mem-latency` must
/// lie in [1, kMaxLatency], `--network-latency` in [0, kMaxLatency] and
/// `--processors` in [0, kMaxProcessors].
[[nodiscard]] MachineFlagParse apply_machine_flag(MachineOptions& o,
                                                  const std::string& arg,
                                                  std::string* detail = nullptr);

/// The machine defaults both interactive surfaces start from: pipelined
/// loop control (the CLI's long-standing default, vs. the library
/// default of barrier).
[[nodiscard]] MachineOptions default_cli_machine_options();

}  // namespace ctdf::machine
