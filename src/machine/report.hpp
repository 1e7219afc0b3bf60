// Human-readable execution reports: operator mix, parallelism profile,
// memory behavior. Used by the `ctdf run --report` CLI and available
// as a library utility.
#pragma once

#include <string>

#include "machine/machine.hpp"
#include "support/json_writer.hpp"

namespace ctdf::machine {

/// Multi-line summary of a run: headline numbers, firings by operator
/// kind, memory traffic, and (when the profile was recorded) a coarse
/// ops-per-cycle timeline rendered as a text sparkline.
[[nodiscard]] std::string render_report(const RunStats& stats);

/// The escape lives with the JSON writer; kept here for callers that
/// name it through the machine library.
using support::json_escape;

/// One JSON object covering the machine configuration and every
/// RunStats counter (fired_by_kind keyed by op-kind name; the per-node
/// and per-cycle vectors are summarized, not dumped), written as a
/// block object through `w`. Keys are emitted in a fixed order so the
/// output is deterministic for a given run.
void write_stats_json(support::JsonWriter& w, const RunStats& stats,
                      const MachineOptions& opt);

/// write_stats_json's object in the multi-line layout, at the top
/// level. `ctdf run --stats-json` wraps this together with the
/// pipeline-stage counters.
[[nodiscard]] std::string render_stats_json(const RunStats& stats,
                                            const MachineOptions& opt);

}  // namespace ctdf::machine
