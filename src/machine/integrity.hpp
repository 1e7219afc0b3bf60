// Run-time integrity checking (MachineOptions::check, CLI
// `--check=integrity`): cheap dynamic certificates that a run obeyed
// the tagged-token machine's own rules.
//
// Three disciplines are validated, all on the shared firing path
// (frames.hpp / fire.hpp) so both pending-queue policies inherit them:
//
//  * Frame-slot permission tags. Each matching slot carries a shadow
//    tag cycling empty → written → (consumed back to) empty — the
//    dynamic analogue of WaveCert's fractional channel permissions,
//    implemented as HDFI-style tag bits beside the data. Delivering a
//    token onto a written tag is a double write (two tokens on one
//    arc: single-assignment violated); firing with an empty tag on a
//    non-literal port means the operator consumed an input no token
//    ever produced (a presence-bit discipline break).
//
//  * Memory access ordering. Updatable cells have no hardware
//    interlock — the *translation* must order conflicting accesses
//    through ack edges. Any translator-ordered pair of accesses to one
//    cell is therefore at least mem_latency cycles apart (the ordering
//    edge is the first access's acknowledgement, which takes the full
//    split-phase round trip). Two accesses to the same cell closer
//    than that, at least one a write, are provably unordered: a race.
//    I-structure cells are exempt (their write-once/deferral protocol
//    is the interlock, checked separately), as are read/read pairs
//    (parallel reads are legal and encouraged).
//
//  * Split-phase response accounting. Every deferred I-structure read
//    parks exactly one outstanding request; every response must
//    consume exactly one. A response with no matching request (e.g. a
//    duplicated deferred-reader wake-up) is an orphan.
//
// A violation fails the run through the typed RunError taxonomy with
// an `integrity/*` code, built by the constructors below.
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/graph.hpp"
#include "machine/errors.hpp"
#include "machine/machine.hpp"

namespace ctdf::machine {

class ExecProgram;

/// The verdict of one checked memory access (apply_mem).
struct MemCheck {
  enum class Kind : std::uint8_t {
    kOk = 0,
    kIStoreDoubleWrite,  ///< second write to a write-once cell
    kMemRace,            ///< unordered same-cell accesses, one a write
    kOrphanResponse,     ///< deferred response with no parked request
  };
  Kind kind = Kind::kOk;
  std::uint64_t cell = 0;
  // kMemRace: the conflicting earlier access.
  std::uint32_t prev_node = 0;
  std::uint64_t prev_cycle = 0;
  bool prev_write = false;
  // kOrphanResponse: the reader the surplus response would wake.
  std::uint32_t reader_node = 0;
  std::uint32_t reader_ctx = 0;
};

/// Per-run checker state for the memory disciplines. Engaged only when
/// MachineOptions::check != kOff; the engine passes nullptr otherwise
/// and apply_mem's checking branches are dead.
struct IntegrityState {
  static constexpr std::uint64_t kNever = UINT64_MAX;

  /// Per-cell access history and outstanding-request count.
  struct Cell {
    std::uint64_t last_cycle = kNever;
    std::uint32_t last_node = 0;
    bool last_write = false;
    /// Bind-shared cell (several program names): the spacing rule's
    /// soundness argument covers only same-name ack ordering, so the
    /// race check skips this cell entirely.
    bool shared = false;
    std::uint32_t parked = 0;  ///< deferred readers awaiting a response
  };
  std::vector<Cell> cells;
  std::uint64_t mem_latency = 1;
  /// Mutation-harness hook (MachineOptions::test_dup_response).
  bool dup_response = false;

  void init(std::size_t num_cells, std::uint64_t latency, bool dup,
            const std::vector<lang::CellRegion>& shared = {}) {
    cells.assign(num_cells, Cell{});
    mem_latency = latency;
    dup_response = dup;
    for (const lang::CellRegion& r : shared)
      for (std::uint32_t i = 0; i < r.extent; ++i)
        if (r.base + i < cells.size()) cells[r.base + i].shared = true;
  }
};

// Report constructors for the integrity violations.
[[nodiscard]] RunError integrity_double_write_error(const ExecProgram& ep,
                                                    dfg::NodeId node,
                                                    std::uint16_t port,
                                                    std::uint32_t ctx,
                                                    std::uint64_t cycle);
[[nodiscard]] RunError integrity_read_empty_error(const ExecProgram& ep,
                                                  dfg::NodeId node, int port,
                                                  std::uint32_t ctx,
                                                  std::uint64_t cycle);
[[nodiscard]] RunError integrity_mem_race_error(const ExecProgram& ep,
                                                dfg::NodeId node,
                                                const MemCheck& mc,
                                                std::uint64_t cycle,
                                                std::uint64_t mem_latency);
[[nodiscard]] RunError integrity_orphan_error(const ExecProgram& ep,
                                              const MemCheck& mc);

}  // namespace ctdf::machine
