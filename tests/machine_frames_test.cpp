// The frame store's blank-frame invariants (machine/frames.hpp).
//
// A context frame starts as a copy of the program's blank frame —
// literal ports filled and present, token ports absent — and a firing
// clears only its token ports' presence bits. So the derived data must
// match the op table exactly, literals must survive every recycled
// frame, and a token aimed at a literal port must still collide.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "lang/corpus.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "machine/blob.hpp"
#include "machine/exec.hpp"
#include "machine/machine.hpp"
#include "machine/mutate.hpp"
#include "machine/report.hpp"
#include "support/forged_images.hpp"
#include "support/scan_reference.hpp"

namespace ctdf::machine {
namespace {

/// Checks blank_frame(), slot_literals() and token_masks() against the
/// op table and the operand tables they are derived from.
void expect_frames_derived(const ExecProgram& ep, const std::string& context) {
  const std::span<const std::uint64_t> blank = ep.blank_frame();
  ASSERT_EQ(blank.size(), ep.state_offset() + (ep.num_framed_ops() + 3) / 4)
      << context;
  ASSERT_EQ(ep.slot_literals().size(), ep.frame_slots()) << context;
  ASSERT_EQ(ep.token_masks().size(), ep.num_framed_ops()) << context;
  const auto present = [&](std::uint32_t slot) {
    return (blank[ep.presence_offset() + slot / 64] >> (slot % 64)) & 1;
  };
  std::vector<std::uint16_t> states(ep.num_framed_ops());
  if (!states.empty())
    std::memcpy(states.data(), blank.data() + ep.state_offset(),
                states.size() * sizeof(std::uint16_t));
  for (std::uint32_t i = 0; i < ep.num_ops(); ++i) {
    const ExecOp& op = ep.op(i);
    if (!op.framed()) continue;
    const std::string at = context + " op " + std::to_string(i);
    EXPECT_EQ(states[op.strict_index], kFrameNotCreated) << at;
    const TokenMask& mask = ep.token_masks()[op.strict_index];
    int tokens = 0;
    for (std::uint16_t p = 0; p < op.num_inputs; ++p) {
      const std::uint32_t slot = op.frame_base + p;
      const bool literal = ep.literal_at(op, p);
      EXPECT_EQ(present(slot), literal ? 1u : 0u) << at << " port " << p;
      EXPECT_EQ(ep.slot_literals()[slot], literal ? 1 : 0) << at;
      if (literal) {
        EXPECT_EQ(static_cast<std::int64_t>(blank[slot]),
                  ep.literal_value(op, p))
            << at << " port " << p;
        continue;
      }
      ++tokens;
      if (op.num_inputs > 64) continue;  // released port by port
      const std::uint64_t word =
          slot / 64 == op.frame_base / 64 ? mask.first : mask.second;
      EXPECT_TRUE((word >> (slot % 64)) & 1) << at << " port " << p;
    }
    if (op.num_inputs <= 64) {
      EXPECT_EQ(std::popcount(mask.first) + std::popcount(mask.second), tokens)
          << at;
    }
  }
}

/// `count` accumulators updated by literal-bearing ops in a nested
/// loop, so frames hold more than one word of slots.
std::string nested_accumulators(int outer, int inner, int count) {
  std::ostringstream vars, init, body;
  for (int k = 0; k < count; ++k) {
    vars << ", a" << k;
    init << "a" << k << " := " << k << "; ";
    body << "a" << k << " := a" << k << " + j * " << k + 2 << " - 1; ";
  }
  std::ostringstream src;
  src << "var i, j" << vars.str() << ";\n"
      << init.str() << "i := 0;\nwhile i < " << outer
      << " { j := 0; while j < " << inner << " { " << body.str()
      << "j := j + 1; } i := i + 1; }\n";
  return src.str();
}

/// Runs the image under both pending-queue policies, with and without
/// integrity checking: the event policy recycles frames and the scan
/// policy never does, so equal results mean a recycled frame behaves
/// like a fresh one. Returns the unchecked event run.
RunResult expect_recycling_invisible(const lang::Program& prog,
                                     const ProgramImage& image,
                                     MachineOptions mopt,
                                     const std::string& context) {
  const lang::InterpResult want = lang::interpret(prog, 10'000'000);
  EXPECT_TRUE(want.completed) << context;
  RunResult unchecked;
  for (const CheckMode check : {CheckMode::kOff, CheckMode::kIntegrity}) {
    mopt.check = check;
    const std::string at = context + " check=" + to_string(check);
    RunResult event = core::execute(image, mopt);
    const RunResult scan = testing::run_scan(image, mopt);
    EXPECT_TRUE(event.stats.completed)
        << at << ": " << event.stats.error_detail.render();
    EXPECT_EQ(event.store, want.store) << at;
    EXPECT_EQ(render_stats_json(event.stats, mopt),
              render_stats_json(scan.stats, mopt))
        << at;
    EXPECT_EQ(event.store, scan.store) << at;
    if (check == CheckMode::kOff) unchecked = std::move(event);
  }
  return unchecked;
}

TEST(BlankFrames, DerivedFromTheOpTableAndRebuiltByTheDecoder) {
  auto mem_elim = translate::TranslateOptions::schema2_optimized();
  mem_elim.eliminate_memory = true;
  std::vector<lang::corpus::NamedProgram> programs = lang::corpus::all();
  programs.push_back({"accumulators", nested_accumulators(2, 2, 24)});
  for (const auto& np : programs) {
    for (const auto& topt :
         {translate::TranslateOptions::schema2_optimized(), mem_elim}) {
      const auto cr = core::Pipeline(topt).run(np.source);
      const std::string context =
          np.name + (topt.eliminate_memory ? "/mem-elim" : "/default");
      expect_frames_derived(cr.image.exec, context);
      // The blob carries none of it: decoding derives the same data.
      const BlobReadResult read = deserialize(serialize(cr.image));
      ASSERT_TRUE(read.ok()) << context << ": " << read.message;
      const ExecProgram& decoded = read.image.exec;
      EXPECT_TRUE(std::ranges::equal(decoded.blank_frame(),
                                     cr.image.exec.blank_frame()))
          << context;
      EXPECT_TRUE(std::ranges::equal(decoded.slot_literals(),
                                     cr.image.exec.slot_literals()))
          << context;
      ASSERT_EQ(decoded.token_masks().size(),
                cr.image.exec.token_masks().size());
      for (std::size_t i = 0; i < decoded.token_masks().size(); ++i) {
        EXPECT_EQ(decoded.token_masks()[i].first,
                  cr.image.exec.token_masks()[i].first)
            << context;
        EXPECT_EQ(decoded.token_masks()[i].second,
                  cr.image.exec.token_masks()[i].second)
            << context;
      }
    }
  }
}

TEST(BlankFrames, LiteralPortsSurviveThousandsOfRecycledFrames) {
  // 60 x 60 pipelined iterations: every inner iteration draws a frame,
  // and all but the first few draw a recycled one. Twelve accumulators
  // put slot ranges across presence-word boundaries.
  const lang::Program prog =
      lang::parse_or_throw(nested_accumulators(60, 60, 12));
  const auto cr =
      core::Pipeline(translate::TranslateOptions::schema2_optimized())
          .run(prog);
  ASSERT_GT(cr.image.exec.num_literals(), 0u);
  ASSERT_GT(cr.image.exec.frame_slots(), 128u);
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kPipelined;
  const RunResult r =
      expect_recycling_invisible(prog, cr.image, mopt, "pipelined");
  EXPECT_GE(r.stats.contexts_allocated, 60u * 60u);
  EXPECT_LT(r.stats.peak_live_contexts * 10, r.stats.contexts_allocated);
}

TEST(BlankFrames, RangesOfMoreThan64SlotsReleasePortByPort) {
  // Barrier loop entries circulating every accumulator have more than
  // 64 ports, so their firings take the port-by-port release.
  const lang::Program prog = lang::parse_or_throw(nested_accumulators(3, 4, 70));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.eliminate_memory = true;
  const auto cr = core::Pipeline(topt).run(prog);
  bool wide = false;
  for (std::uint32_t i = 0; i < cr.image.exec.num_ops(); ++i)
    wide |= cr.image.exec.op(i).kind == dfg::OpKind::kLoopEntry &&
            cr.image.exec.op(i).num_inputs > 64;
  ASSERT_TRUE(wide);
  MachineOptions mopt;
  mopt.loop_mode = LoopMode::kBarrier;
  expect_recycling_invisible(prog, cr.image, mopt, "barrier");
  mopt.processors = 3;
  expect_recycling_invisible(prog, cr.image, mopt, "barrier/3pe");
}

TEST(BlankFrames, TokenOnALiteralPortIsASlotCollision) {
  const ProgramImage forged = testing::token_on_literal_port_image();
  const BlobReadResult read = deserialize(serialize(forged));
  ASSERT_TRUE(read.ok()) << read.message;
  for (const ProgramImage* image : {&forged, &read.image}) {
    for (const bool scan : {false, true}) {
      MachineOptions mopt;
      const auto run_it = [&] {
        return scan ? testing::run_scan(*image, mopt)
                    : core::execute(*image, mopt);
      };
      const std::string at = std::string(image == &forged ? "lowered" : "blob") +
                             (scan ? "/scan" : "/event");
      const RunResult plain = run_it();
      EXPECT_FALSE(plain.stats.completed) << at;
      EXPECT_EQ(plain.stats.error_detail.code, ErrorCode::kSlotCollision)
          << at << ": " << plain.stats.error_detail.render();
      EXPECT_NE(plain.stats.error_detail.render().find("'victim') port 1"),
                std::string::npos)
          << at << ": " << plain.stats.error_detail.render();
      mopt.check = CheckMode::kIntegrity;
      const RunResult checked = run_it();
      EXPECT_FALSE(checked.stats.completed) << at;
      EXPECT_EQ(checked.stats.error_detail.code,
                ErrorCode::kIntegrityDoubleWrite)
          << at << ": " << checked.stats.error_detail.render();
    }
  }
}

TEST(BlankFrames, MutationsRefreshTheDerivedData) {
  // A mutation edits arities and fan-out after lowering; the blank
  // frame and masks must follow the edited op table (kSkipSynch drops a
  // token port, so a stale mask would still clear its bit).
  auto mem_elim = translate::TranslateOptions::schema2_optimized();
  mem_elim.eliminate_memory = true;
  bool skipped_synch = false;
  for (const auto& np : lang::corpus::all()) {
    for (const auto& topt :
         {translate::TranslateOptions::schema2_optimized(), mem_elim}) {
      const auto cr = core::Pipeline(topt).run(np.source);
      for (const Mutation m :
           {Mutation::kDupFanoutArc, Mutation::kMiswireFanoutPort,
            Mutation::kDropGateArc, Mutation::kUndercountArity,
            Mutation::kSkipSynch, Mutation::kAliasIStoreBase}) {
        ExecProgram ep = cr.image.exec;
        if (!apply_mutation(ep, m)) continue;
        skipped_synch |= m == Mutation::kSkipSynch;
        expect_frames_derived(ep, np.name + " " + to_string(m));
      }
    }
  }
  EXPECT_TRUE(skipped_synch);
}

}  // namespace
}  // namespace ctdf::machine
