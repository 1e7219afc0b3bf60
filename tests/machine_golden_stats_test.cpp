// Pins the simulated schedule across commits. Every other machine test
// compares two runs of one build (machine::run against the scan
// oracle, fault-free against zero-rate, ...), and both sides execute
// the same SerialEngine body, so an engine change that reorders
// firings passes them all. This suite compares each run against
// numbers recorded from an earlier build instead: the corpus under
// two translations and a matrix of machine flags, one row per run.
//
// A row holds the schedule-sensitive counters plus one hash over the
// per-kind firing counts, every node's first-fire cycle and the final
// store. If a change is meant to alter the schedule, the failure
// message prints each new row in table syntax; paste it in and say why
// in the change description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "lang/corpus.hpp"
#include "lang/parser.hpp"
#include "machine/flags.hpp"
#include "machine/machine.hpp"
#include "support/hash.hpp"

namespace ctdf::machine {
namespace {

struct Golden {
  const char* run;  ///< "<program>/<translation>/<config>"
  std::uint64_t cycles, ops_fired, tokens_sent, matches;
  std::uint64_t contexts_allocated, peak_live_contexts, peak_ready,
      leftover_tokens;
  std::uint64_t throttle_stalls, backpressure_stalls, deferred_reads, retries,
      duplicates_dropped;
  std::uint64_t hash;
};

// clang-format off
const Golden kGolden[] = {
  {"running_example/default/pipelined", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/default/barrier", 102, 59, 84, 82, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0x43071de1f9ec0864ull},
  {"running_example/default/width2", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/default/bound2", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/default/pe2-node", 164, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0x307bbeb9ae2c7a6cull},
  {"running_example/default/pe4-ctx", 123, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0x0a30bdc526f87e79ull},
  {"running_example/default/cap2", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/default/seed7-width2", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/default/pe2-faults", 125, 64, 84, 72, 5, 2, 2, 1, 0, 0, 0, 0, 1, 0xf2a225f8c7f89e2eull},
  {"running_example/default/integrity", 102, 64, 84, 72, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xe78605b256307d17ull},
  {"running_example/mem-elim/pipelined", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"running_example/mem-elim/barrier", 26, 36, 53, 51, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0x1f6f28e2731c8fa7ull},
  {"running_example/mem-elim/width2", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"running_example/mem-elim/bound2", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"running_example/mem-elim/pe2-node", 49, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0x0fc4226f76920bceull},
  {"running_example/mem-elim/pe4-ctx", 47, 41, 53, 41, 5, 2, 3, 0, 0, 0, 0, 0, 0, 0x54150b7ef1d85a1eull},
  {"running_example/mem-elim/cap2", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"running_example/mem-elim/seed7-width2", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"running_example/mem-elim/pe2-faults", 52, 41, 53, 41, 5, 2, 3, 0, 0, 0, 0, 0, 3, 0x9c5113e1260e85d8ull},
  {"running_example/mem-elim/integrity", 26, 41, 53, 41, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0xea0c3f798fd6bf73ull},
  {"fig9/default/pipelined", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/barrier", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/width2", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/bound2", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/pe2-node", 22, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x200dffc1591d6188ull},
  {"fig9/default/pe4-ctx", 15, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x6c6167b855c31456ull},
  {"fig9/default/cap2", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/seed7-width2", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/default/pe2-faults", 15, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x6c6167b855c31456ull},
  {"fig9/default/integrity", 14, 11, 14, 13, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xc984a159b7a090f2ull},
  {"fig9/mem-elim/pipelined", 9, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x26db19e7b3b5d2dfull},
  {"fig9/mem-elim/barrier", 9, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x26db19e7b3b5d2dfull},
  {"fig9/mem-elim/width2", 10, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5adc8670236d02e4ull},
  {"fig9/mem-elim/bound2", 9, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x26db19e7b3b5d2dfull},
  {"fig9/mem-elim/pe2-node", 19, 11, 16, 15, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xd874664adee63e24ull},
  {"fig9/mem-elim/pe4-ctx", 13, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x93845a01877f5e83ull},
  {"fig9/mem-elim/cap2", 9, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x26db19e7b3b5d2dfull},
  {"fig9/mem-elim/seed7-width2", 10, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5adc8670236d02e4ull},
  {"fig9/mem-elim/pe2-faults", 13, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x93845a01877f5e83ull},
  {"fig9/mem-elim/integrity", 9, 11, 16, 15, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x26db19e7b3b5d2dfull},
  {"nested_bypass_4/default/pipelined", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/barrier", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/width2", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/bound2", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/pe2-node", 120, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xf99cff45fa670f7cull},
  {"nested_bypass_4/default/pe4-ctx", 82, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xad4d9af8c5f2023eull},
  {"nested_bypass_4/default/cap2", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/seed7-width2", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/default/pe2-faults", 84, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0xc2e7f371fbf0ce77ull},
  {"nested_bypass_4/default/integrity", 77, 49, 65, 58, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x1e77d5b84b3d153full},
  {"nested_bypass_4/mem-elim/pipelined", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5bd44fbed5247f3dull},
  {"nested_bypass_4/mem-elim/barrier", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5bd44fbed5247f3dull},
  {"nested_bypass_4/mem-elim/width2", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0xc28f977a3e3f2c86ull},
  {"nested_bypass_4/mem-elim/bound2", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5bd44fbed5247f3dull},
  {"nested_bypass_4/mem-elim/pe2-node", 44, 32, 43, 36, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x84ec46971e571807ull},
  {"nested_bypass_4/mem-elim/pe4-ctx", 34, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x2a122cd76fd7745bull},
  {"nested_bypass_4/mem-elim/cap2", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5bd44fbed5247f3dull},
  {"nested_bypass_4/mem-elim/seed7-width2", 22, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x347479848fcc15a4ull},
  {"nested_bypass_4/mem-elim/pe2-faults", 34, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x2a122cd76fd7745bull},
  {"nested_bypass_4/mem-elim/integrity", 21, 32, 43, 36, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5bd44fbed5247f3dull},
  {"fortran_alias/default/pipelined", 41, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x251d1ae44bb78289ull},
  {"fortran_alias/default/barrier", 41, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x251d1ae44bb78289ull},
  {"fortran_alias/default/width2", 42, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x22bd09c5b073fec5ull},
  {"fortran_alias/default/bound2", 41, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x251d1ae44bb78289ull},
  {"fortran_alias/default/pe2-node", 67, 34, 57, 57, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x8a35a66cb8ac4218ull},
  {"fortran_alias/default/pe4-ctx", 51, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x9c3fc6e3c4e82939ull},
  {"fortran_alias/default/cap2", 41, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x251d1ae44bb78289ull},
  {"fortran_alias/default/seed7-width2", 42, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0xb2e3986abe8e6551ull},
  {"fortran_alias/default/pe2-faults", 50, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0x1f1628e290b403a3ull},
  {"fortran_alias/default/integrity", 41, 34, 57, 57, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x251d1ae44bb78289ull},
  {"fortran_alias/mem-elim/pipelined", 37, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x264833262378a3a0ull},
  {"fortran_alias/mem-elim/barrier", 37, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x264833262378a3a0ull},
  {"fortran_alias/mem-elim/width2", 38, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x903bdc10e30b1b6cull},
  {"fortran_alias/mem-elim/bound2", 37, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x264833262378a3a0ull},
  {"fortran_alias/mem-elim/pe2-node", 61, 29, 52, 52, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xde65d1f2f7f69f4cull},
  {"fortran_alias/mem-elim/pe4-ctx", 46, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0xedf0516c11b0be31ull},
  {"fortran_alias/mem-elim/cap2", 37, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x264833262378a3a0ull},
  {"fortran_alias/mem-elim/seed7-width2", 38, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x5600f7c943c3875bull},
  {"fortran_alias/mem-elim/pe2-faults", 48, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0x5d570f198dbd27baull},
  {"fortran_alias/mem-elim/integrity", 37, 29, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x264833262378a3a0ull},
  {"array_loop_10/default/pipelined", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/default/barrier", 202, 104, 154, 152, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0x95ee74b49290d155ull},
  {"array_loop_10/default/width2", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/default/bound2", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/default/pe2-node", 285, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xb74570df8878d9baull},
  {"array_loop_10/default/pe4-ctx", 242, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0x8f38c0854a80c323ull},
  {"array_loop_10/default/cap2", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/default/seed7-width2", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/default/pe2-faults", 250, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 3, 3, 0x7b95e8cdffeafb45ull},
  {"array_loop_10/default/integrity", 202, 114, 154, 132, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xeb3f3bc9d8eef548ull},
  {"array_loop_10/mem-elim/pipelined", 63, 75, 106, 84, 10, 5, 2, 0, 0, 0, 0, 0, 0, 0xe0add7a8aa036e35ull},
  {"array_loop_10/mem-elim/barrier", 73, 65, 106, 104, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0x91e1afb9003fd415ull},
  {"array_loop_10/mem-elim/width2", 63, 75, 106, 84, 10, 5, 2, 0, 0, 0, 0, 0, 0, 0xe0add7a8aa036e35ull},
  {"array_loop_10/mem-elim/bound2", 63, 82, 113, 84, 10, 2, 2, 0, 7, 0, 0, 0, 0, 0x74c93a67256e5377ull},
  {"array_loop_10/mem-elim/pe2-node", 138, 75, 106, 84, 10, 2, 2, 0, 0, 0, 0, 0, 0, 0xb98d35718bfc5b6dull},
  {"array_loop_10/mem-elim/pe4-ctx", 82, 75, 106, 84, 10, 4, 2, 0, 0, 0, 0, 0, 0, 0x0a9cdbbb6cf74a73ull},
  {"array_loop_10/mem-elim/cap2", 63, 75, 113, 84, 10, 2, 2, 0, 0, 7, 0, 0, 0, 0x5d8bf90cf1736a9dull},
  {"array_loop_10/mem-elim/seed7-width2", 63, 75, 106, 84, 10, 5, 2, 0, 0, 0, 0, 0, 0, 0xe0add7a8aa036e35ull},
  {"array_loop_10/mem-elim/pe2-faults", 86, 75, 106, 84, 10, 3, 2, 0, 0, 0, 0, 1, 3, 0x8f19f3f7931d5c9bull},
  {"array_loop_10/mem-elim/integrity", 63, 75, 106, 84, 10, 5, 2, 0, 0, 0, 0, 0, 0, 0xe0add7a8aa036e35ull},
  {"independent_chains_4x3/default/pipelined", 28, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x5254a4bdee3b6da4ull},
  {"independent_chains_4x3/default/barrier", 28, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x5254a4bdee3b6da4ull},
  {"independent_chains_4x3/default/width2", 32, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0xfe0ee8b1f4552e06ull},
  {"independent_chains_4x3/default/bound2", 28, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x5254a4bdee3b6da4ull},
  {"independent_chains_4x3/default/pe2-node", 52, 38, 52, 52, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x44778fe56f86f24aull},
  {"independent_chains_4x3/default/pe4-ctx", 40, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x6fdda42f9698c8eaull},
  {"independent_chains_4x3/default/cap2", 28, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x5254a4bdee3b6da4ull},
  {"independent_chains_4x3/default/seed7-width2", 31, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0xeb73293c4cddd7d2ull},
  {"independent_chains_4x3/default/pe2-faults", 41, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0x1d62a7d49abe1eedull},
  {"independent_chains_4x3/default/integrity", 28, 38, 52, 52, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x5254a4bdee3b6da4ull},
  {"independent_chains_4x3/mem-elim/pipelined", 8, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x3503a4b0df6554ebull},
  {"independent_chains_4x3/mem-elim/barrier", 8, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x3503a4b0df6554ebull},
  {"independent_chains_4x3/mem-elim/width2", 12, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x4c133ed24196867eull},
  {"independent_chains_4x3/mem-elim/bound2", 8, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x3503a4b0df6554ebull},
  {"independent_chains_4x3/mem-elim/pe2-node", 17, 18, 24, 24, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x4edff5fe6021ec23ull},
  {"independent_chains_4x3/mem-elim/pe4-ctx", 20, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0xa65e1c7bb3dc2f08ull},
  {"independent_chains_4x3/mem-elim/cap2", 8, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x3503a4b0df6554ebull},
  {"independent_chains_4x3/mem-elim/seed7-width2", 13, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x6f40370430097be4ull},
  {"independent_chains_4x3/mem-elim/pe2-faults", 20, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0xa65e1c7bb3dc2f08ull},
  {"independent_chains_4x3/mem-elim/integrity", 8, 18, 24, 24, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x3503a4b0df6554ebull},
  {"read_heavy_8/default/pipelined", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x388dccfadef5ae63ull},
  {"read_heavy_8/default/barrier", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x388dccfadef5ae63ull},
  {"read_heavy_8/default/width2", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x584b7fb455fa3dfeull},
  {"read_heavy_8/default/bound2", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x388dccfadef5ae63ull},
  {"read_heavy_8/default/pe2-node", 32, 26, 41, 41, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0x24b0f03d74eb89fdull},
  {"read_heavy_8/default/pe4-ctx", 28, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x9430501734fd05d2ull},
  {"read_heavy_8/default/cap2", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x388dccfadef5ae63ull},
  {"read_heavy_8/default/seed7-width2", 22, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0xa266c68c1cf44120ull},
  {"read_heavy_8/default/pe2-faults", 29, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 1, 0, 0x9aecccf5aeb43f5eull},
  {"read_heavy_8/default/integrity", 20, 26, 41, 41, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0x388dccfadef5ae63ull},
  {"read_heavy_8/mem-elim/pipelined", 13, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x2fd5781f338969a1ull},
  {"read_heavy_8/mem-elim/barrier", 13, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x2fd5781f338969a1ull},
  {"read_heavy_8/mem-elim/width2", 19, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0xaa042115fd16c397ull},
  {"read_heavy_8/mem-elim/bound2", 13, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x2fd5781f338969a1ull},
  {"read_heavy_8/mem-elim/pe2-node", 33, 26, 49, 49, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0x1737a4c589c971feull},
  {"read_heavy_8/mem-elim/pe4-ctx", 28, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x18da9bc04fa359e6ull},
  {"read_heavy_8/mem-elim/cap2", 13, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x2fd5781f338969a1ull},
  {"read_heavy_8/mem-elim/seed7-width2", 16, 26, 49, 49, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0xae4f3111fcba3962ull},
  {"read_heavy_8/mem-elim/pe2-faults", 29, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 1, 0, 0xa098cdb584d41531ull},
  {"read_heavy_8/mem-elim/integrity", 13, 26, 49, 49, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x2fd5781f338969a1ull},
  {"irreducible/default/pipelined", 92, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x0c216f78f5efafb8ull},
  {"irreducible/default/barrier", 92, 86, 128, 122, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x1bd06f8500e2210eull},
  {"irreducible/default/width2", 103, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xfe2ae342e53c5344ull},
  {"irreducible/default/bound2", 92, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x0c216f78f5efafb8ull},
  {"irreducible/default/pe2-node", 149, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x8cecb4453bc44230ull},
  {"irreducible/default/pe4-ctx", 135, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x1217b8c1b06b6b26ull},
  {"irreducible/default/cap2", 92, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x0c216f78f5efafb8ull},
  {"irreducible/default/seed7-width2", 99, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x94060f495b331d03ull},
  {"irreducible/default/pe2-faults", 137, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 1, 2, 0x189ecb56be2fb40eull},
  {"irreducible/default/integrity", 92, 94, 128, 110, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x0c216f78f5efafb8ull},
  {"irreducible/mem-elim/pipelined", 29, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xee5dafa659d71d6dull},
  {"irreducible/mem-elim/barrier", 29, 56, 88, 82, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xffc00b9d78f0890dull},
  {"irreducible/mem-elim/width2", 40, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x5f3047bac46ea838ull},
  {"irreducible/mem-elim/bound2", 29, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xee5dafa659d71d6dull},
  {"irreducible/mem-elim/pe2-node", 73, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x2e72168216905ed6ull},
  {"irreducible/mem-elim/pe4-ctx", 66, 64, 88, 70, 4, 2, 4, 0, 0, 0, 0, 0, 0, 0x18892c3bf9f1b39bull},
  {"irreducible/mem-elim/cap2", 29, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xee5dafa659d71d6dull},
  {"irreducible/mem-elim/seed7-width2", 39, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0x136393e536e2c6e9ull},
  {"irreducible/mem-elim/pe2-faults", 67, 64, 88, 70, 4, 2, 4, 0, 0, 0, 0, 0, 1, 0x55ae5e1ae1e76ecbull},
  {"irreducible/mem-elim/integrity", 29, 64, 88, 70, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0xee5dafa659d71d6dull},
  {"nested_loops_3x4/default/pipelined", 337, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x3343ee4272256c6full},
  {"nested_loops_3x4/default/barrier", 337, 261, 408, 396, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x044669bb7948843full},
  {"nested_loops_3x4/default/width2", 356, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0xdc9b12cb4e82d10dull},
  {"nested_loops_3x4/default/bound2", 337, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x3343ee4272256c6full},
  {"nested_loops_3x4/default/pe2-node", 522, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0xeb071bef77c943faull},
  {"nested_loops_3x4/default/pe4-ctx", 438, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x718411081a501c8bull},
  {"nested_loops_3x4/default/cap2", 337, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x3343ee4272256c6full},
  {"nested_loops_3x4/default/seed7-width2", 355, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x5063994d43c7339dull},
  {"nested_loops_3x4/default/pe2-faults", 451, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 5, 1, 0x021cb475a0948dd2ull},
  {"nested_loops_3x4/default/integrity", 337, 299, 408, 339, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0x3343ee4272256c6full},
  {"nested_loops_3x4/mem-elim/pipelined", 85, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x4beff9a03713336eull},
  {"nested_loops_3x4/mem-elim/barrier", 109, 167, 290, 278, 19, 2, 3, 0, 0, 0, 0, 0, 0, 0xadd0acf554dd3310ull},
  {"nested_loops_3x4/mem-elim/width2", 111, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x6a81a642951f7d87ull},
  {"nested_loops_3x4/mem-elim/bound2", 85, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x4beff9a03713336eull},
  {"nested_loops_3x4/mem-elim/pe2-node", 235, 205, 290, 221, 19, 3, 3, 0, 0, 0, 0, 0, 0, 0x113bb0656191f065ull},
  {"nested_loops_3x4/mem-elim/pe4-ctx", 215, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x8018dc4eb541e6ddull},
  {"nested_loops_3x4/mem-elim/cap2", 85, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x4beff9a03713336eull},
  {"nested_loops_3x4/mem-elim/seed7-width2", 109, 205, 290, 221, 19, 4, 4, 0, 0, 0, 0, 0, 0, 0x4970da4a0b82ffecull},
  {"nested_loops_3x4/mem-elim/pe2-faults", 215, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 9, 0x8018dc4eb541e6ddull},
  {"nested_loops_3x4/mem-elim/integrity", 85, 205, 290, 221, 19, 2, 4, 0, 0, 0, 0, 0, 0, 0x4beff9a03713336eull},
  {"chain_loop_6x8/default/pipelined", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/default/barrier", 151, 119, 152, 150, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x395c88c82924d011ull},
  {"chain_loop_6x8/default/width2", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/default/bound2", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/default/pe2-node", 226, 126, 152, 136, 7, 3, 2, 0, 0, 0, 0, 0, 0, 0x7723707a7b796a3eull},
  {"chain_loop_6x8/default/pe4-ctx", 145, 126, 152, 136, 7, 3, 2, 0, 0, 0, 0, 0, 0, 0xf1c532724e5aed66ull},
  {"chain_loop_6x8/default/cap2", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/default/seed7-width2", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/default/pe2-faults", 145, 126, 152, 136, 7, 3, 2, 0, 0, 0, 0, 0, 2, 0x446948da946ae483ull},
  {"chain_loop_6x8/default/integrity", 121, 126, 152, 136, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x84f0945370f516ffull},
  {"chain_loop_6x8/mem-elim/pipelined", 70, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0xbe676179190c83daull},
  {"chain_loop_6x8/mem-elim/barrier", 76, 90, 113, 111, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0x74e685097f73499full},
  {"chain_loop_6x8/mem-elim/width2", 70, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0xbe676179190c83daull},
  {"chain_loop_6x8/mem-elim/bound2", 70, 102, 118, 97, 7, 2, 2, 0, 5, 0, 0, 0, 0, 0x2bb2c38b1c2502f3ull},
  {"chain_loop_6x8/mem-elim/pe2-node", 150, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0x2162526a3cb6f54eull},
  {"chain_loop_6x8/mem-elim/pe4-ctx", 87, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0xa37542bf6fef6ef4ull},
  {"chain_loop_6x8/mem-elim/cap2", 70, 97, 118, 97, 7, 2, 2, 0, 0, 5, 0, 0, 0, 0xff9d95291b79356dull},
  {"chain_loop_6x8/mem-elim/seed7-width2", 70, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0xbe676179190c83daull},
  {"chain_loop_6x8/mem-elim/pe2-faults", 93, 97, 113, 97, 7, 4, 2, 0, 0, 0, 0, 0, 4, 0x6752820b01776ac1ull},
  {"chain_loop_6x8/mem-elim/integrity", 70, 97, 113, 97, 7, 5, 2, 0, 0, 0, 0, 0, 0, 0xbe676179190c83daull},
};
// clang-format on

/// The machine flag matrix, in CLI terms (pipelined loop control is the
/// CLI default). The scheduler seed only picks among ready operators
/// when `width` leaves some of them waiting, so it runs at width 2.
const std::vector<std::pair<const char*, std::vector<std::string>>>
    kConfigs = {
        {"pipelined", {}},
        {"barrier", {"--barrier"}},
        {"width2", {"--width=2"}},
        {"bound2", {"--loop-bound=2"}},
        {"pe2-node", {"--processors=2", "--place-by-node"}},
        {"pe4-ctx", {"--processors=4"}},
        {"cap2", {"--frame-capacity=2"}},
        {"seed7-width2", {"--sched-seed=7", "--width=2"}},
        {"pe2-faults",
         {"--processors=2", "--faults=drop=0.05,dup=0.05,jitter=0.1,nack=0.05",
          "--fault-seed=7"}},
        {"integrity", {"--check=integrity"}},
};

std::uint64_t outcome_hash(const RunResult& r) {
  support::Fnv1a64 h;
  const auto add = [&](const auto& v) {
    h.update_u64(v.size());
    for (const auto x : v) h.update_u64(static_cast<std::uint64_t>(x));
  };
  add(r.stats.fired_by_kind);
  add(r.stats.first_fire_cycle);
  add(r.store.cells);
  return h.digest();
}

Golden row_of(const char* run, const RunResult& r) {
  const RunStats& s = r.stats;
  return Golden{run,
                s.cycles,
                s.ops_fired,
                s.tokens_sent,
                s.matches,
                s.contexts_allocated,
                s.peak_live_contexts,
                s.peak_ready,
                s.leftover_tokens,
                s.throttle_stalls,
                s.backpressure_stalls,
                s.deferred_reads,
                s.retries,
                s.duplicates_dropped,
                outcome_hash(r)};
}

std::string render(const Golden& g) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", 0x%016" PRIx64 "ull},",
                g.run, g.cycles, g.ops_fired, g.tokens_sent, g.matches,
                g.contexts_allocated, g.peak_live_contexts, g.peak_ready,
                g.leftover_tokens, g.throttle_stalls, g.backpressure_stalls,
                g.deferred_reads, g.retries, g.duplicates_dropped, g.hash);
  return buf;
}

TEST(GoldenStats, CorpusScheduleMatchesTheRecordedTable) {
  std::map<std::string, const Golden*> table;
  for (const Golden& g : kGolden) table[g.run] = &g;

  auto mem_elim = translate::TranslateOptions::schema2_optimized();
  mem_elim.eliminate_memory = true;
  mem_elim.parallel_reads = true;
  const std::vector<std::pair<const char*, translate::TranslateOptions>>
      translations = {
          {"default", translate::TranslateOptions::schema2_optimized()},
          {"mem-elim", mem_elim},
      };

  std::ostringstream mismatched;
  std::size_t runs = 0;
  for (const auto& np : lang::corpus::all()) {
    const lang::Program prog = lang::parse_or_throw(np.source);
    for (const auto& [tname, topt] : translations) {
      const auto tx = core::compile(prog, topt);
      for (const auto& [cname, flags] : kConfigs) {
        MachineOptions mopt = default_cli_machine_options();
        for (const std::string& f : flags)
          ASSERT_EQ(apply_machine_flag(mopt, f), MachineFlagParse::kApplied)
              << f;
        const std::string run = np.name + "/" + tname + "/" + cname;
        const RunResult r = core::execute(tx, mopt);
        EXPECT_TRUE(r.stats.completed) << run << ": " << r.stats.error;
        const Golden actual = row_of(run.c_str(), r);
        const auto it = table.find(run);
        const bool same =
            it != table.end() && render(*it->second) == render(actual);
        if (!same) mismatched << "  " << render(actual) << "\n";
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, std::size(kGolden)) << "the table has stale rows";
  EXPECT_TRUE(mismatched.str().empty())
      << "runs whose schedule differs from the table (actual rows):\n"
      << mismatched.str();
}

}  // namespace
}  // namespace ctdf::machine
