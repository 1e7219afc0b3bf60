// Cycle-level simulator of an explicit-token-store dataflow machine
// (paper Section 2.2; the model is Monsoon's [17]).
//
// Execution model:
//  * A token is (context, instruction, port, value). Contexts play the
//    role of Monsoon frames: tokens destined for a multi-input operator
//    rendezvous in a per-(context, instruction) matching slot.
//  * Every loop iteration gets a fresh context, allocated by the
//    loop-entry operator (LoopMode selects barrier vs pipelined
//    allocation); loop-exit operators retag tokens back into the
//    invocation's context.
//  * Memory is ordinary updatable storage (the paper's deliberate
//    departure from I-structure-only dataflow): loads and stores are
//    split-phase, consume an access token and emit an acknowledgement
//    after `mem_latency` cycles. I-structure cells (for the Section 6.3
//    write-once optimization) additionally support deferred reads.
//  * Up to `width` operators fire per cycle (0 = unlimited); unchosen
//    ready operators wait. Scheduling is deterministic FIFO unless a
//    scheduler seed is given (confluence testing).
//
// The run ends when the End operator fires. Deadlock (no events
// pending, End never fired), matching-slot collisions (two tokens
// waiting on the same port — illegal in a one-token-per-arc model),
// leftover in-flight tokens at completion, and cycle-cap overruns are
// all detected and reported; the test suite treats each as a
// translation bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "lang/interp.hpp"
#include "machine/errors.hpp"
#include "machine/options.hpp"

namespace ctdf::machine {

class ExecProgram;

struct RunStats {
  bool completed = false;
  /// Why the run failed (machine/errors.hpp); code kNone on success.
  /// error_detail.render() is the flat text every surface prints.
  RunError error_detail;

  /// Records a failure.
  void fail(ErrorCode code, std::string message, std::string diagnosis = {}) {
    error_detail = RunError{code, std::move(message), std::move(diagnosis)};
  }
  void fail(RunError err) { error_detail = std::move(err); }

  std::uint64_t cycles = 0;
  std::uint64_t ops_fired = 0;
  std::uint64_t tokens_sent = 0;
  std::uint64_t matches = 0;             ///< tokens stored in match slots
  std::uint64_t contexts_allocated = 0;  ///< loop iterations started
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  /// Iteration contexts simultaneously live (allocated, not yet
  /// retired) at the worst moment — the frame-store footprint.
  std::uint64_t peak_live_contexts = 0;
  /// Loop-entry forwardings stalled by the k-bound (see
  /// MachineOptions::loop_bound).
  std::uint64_t throttle_stalls = 0;
  std::uint64_t deferred_reads = 0;  ///< I-structure reads that waited
  std::uint64_t peak_ready = 0;      ///< max operators ready in one cycle
  /// Tokens still draining when End fired (dead value chains; see
  /// machine.cpp — a draining *store* is an error instead).
  std::uint64_t leftover_tokens = 0;

  /// Loop-entry firings stalled by MachineOptions::frame_capacity.
  std::uint64_t backpressure_stalls = 0;

  /// Integrity validations performed (MachineOptions::check): one per
  /// checked strict delivery (tag transition), per firing (permission
  /// sweep at release), and per memory access (race / response
  /// accounting). Zero when checking is off — the run carried no
  /// certificate.
  std::uint64_t integrity_checks = 0;

  /// Fired-operator counts by dfg::OpKind (indexed by its value).
  std::vector<std::uint64_t> fired_by_kind;

  /// Cycle of each node's first firing, indexed by dfg::NodeId;
  /// UINT64_MAX if the node never fired. Used to measure when a
  /// particular operation (e.g. Fig. 9's second assignment to x) became
  /// able to execute.
  std::vector<std::uint64_t> first_fire_cycle;

  /// ops fired per cycle (only when MachineOptions::record_profile).
  std::vector<std::uint32_t> profile;

  [[nodiscard]] double avg_parallelism() const {
    return cycles ? static_cast<double>(ops_fired) / static_cast<double>(cycles)
                  : 0.0;
  }
};

struct RunResult {
  RunStats stats;
  lang::Store store;  ///< final memory contents
};

/// Executes an already-lowered program (see machine/exec.hpp; the
/// pipeline's `lower` stage builds one into core::CompileResult::image)
/// against a zeroed memory of `memory_cells` cells. `istructures` are
/// write-once regions; `shared` are bind-shared regions, which the
/// integrity checker's mem-race spacing rule exempts (lang::CellRegion).
[[nodiscard]] RunResult run(const ExecProgram& program,
                            std::size_t memory_cells,
                            const MachineOptions& options,
                            const std::vector<lang::CellRegion>& istructures = {},
                            const std::vector<lang::CellRegion>& shared = {});

}  // namespace ctdf::machine
