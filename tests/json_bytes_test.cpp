// Pins every JSON surface byte for byte: machine::render_stats_json
// (completed, cycle-capped, token-capped, frame-exhausted and
// deadlocked runs), core::render_cache_json, and `ctdf serve`'s run,
// compile, stats and error responses over the corpus and
// serve-cold-style generated programs. The frozen-key tests pin names
// and order; this suite pins the bytes, layout and number formatting
// included, so a new writer cannot drift from the old one.
//
// A row is one rendered document's FNV hash and size. Serve responses
// carry wall times; the values of stage_nanos, exec_nanos and
// total_nanos are masked to 0 before hashing (the stage names stay).
// If a change is meant to alter the output, the failure message prints
// each new row in table syntax; paste it in and say why in the change
// description.
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "core/progcache.hpp"
#include "dfg/graph.hpp"
#include "lang/corpus.hpp"
#include "machine/flags.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "serve/serve.hpp"
#include "support/cold_programs.hpp"
#include "support/hash.hpp"
#include "support/json_writer.hpp"
#include "translate/options.hpp"

namespace ctdf {
namespace {

struct Golden {
  const char* row;  ///< "<surface>/<case>"
  std::uint64_t hash, bytes;
};

// clang-format off
const Golden kGolden[] = {
  {"stats/running_example/default", 0xec023b92f386d936ull, 866},
  {"stats/running_example/pe3", 0x2cb1260a35f3a7c0ull, 866},
  {"stats/running_example/integrity", 0xee30a69218e85103ull, 873},
  {"stats/running_example/barrier-k2", 0x96f4677b37c665beull, 863},
  {"stats/running_example/cycle-cap", 0x85e601530f552dd1ull, 958},
  {"stats/running_example/token-cap", 0x9eb0bccdd16bcd4cull, 962},
  {"stats/running_example/frame-exhausted", 0x24ddc251c7d93675ull, 1554},
  {"stats/fig9/default", 0x700a672206b493cdull, 837},
  {"stats/fig9/pe3", 0xf9c8e462bbc9fbf1ull, 837},
  {"stats/fig9/integrity", 0x94abd9e9965a4a01ull, 837},
  {"stats/fig9/barrier-k2", 0x0f9f6b0d701de125ull, 835},
  {"stats/fig9/cycle-cap", 0x410445c17d8f1386ull, 831},
  {"stats/fig9/token-cap", 0x389e1e8b99694bacull, 838},
  {"stats/fig9/frame-exhausted", 0x963084346210408cull, 835},
  {"stats/nested_bypass_4/default", 0x9b50a8c4cded5945ull, 840},
  {"stats/nested_bypass_4/pe3", 0xf37807554fb2c5c5ull, 840},
  {"stats/nested_bypass_4/integrity", 0x03f4d648dfbd30d7ull, 848},
  {"stats/nested_bypass_4/barrier-k2", 0x176d6d0d356c20bdull, 838},
  {"stats/nested_bypass_4/cycle-cap", 0xcc48798c7cdc125dull, 945},
  {"stats/nested_bypass_4/token-cap", 0xbcb792c926d5b625ull, 949},
  {"stats/nested_bypass_4/frame-exhausted", 0xd9d49429d4dba32dull, 838},
  {"stats/fortran_alias/default", 0x09c5543aff851891ull, 824},
  {"stats/fortran_alias/pe3", 0xa778650c981fcfdeull, 824},
  {"stats/fortran_alias/integrity", 0xe7cbd1896f64fe17ull, 830},
  {"stats/fortran_alias/barrier-k2", 0xd0283df4eb3aa2aeull, 822},
  {"stats/fortran_alias/cycle-cap", 0xbdfadda1af68fad6ull, 937},
  {"stats/fortran_alias/token-cap", 0xbfdcf1b0f11e0c4bull, 948},
  {"stats/fortran_alias/frame-exhausted", 0xc4ea1507a23c7f69ull, 822},
  {"stats/array_loop_10/default", 0x5b38ce4b11c0d7c1ull, 885},
  {"stats/array_loop_10/pe3", 0x505e3aa747242fb9ull, 882},
  {"stats/array_loop_10/integrity", 0xc2bf38041a355982ull, 893},
  {"stats/array_loop_10/barrier-k2", 0xbbd7dfb2a210309cull, 883},
  {"stats/array_loop_10/cycle-cap", 0xb231b58efcb3aad9ull, 971},
  {"stats/array_loop_10/token-cap", 0x766e255362cdce5cull, 980},
  {"stats/array_loop_10/frame-exhausted", 0x737a9144fc5a5ebbull, 1567},
  {"stats/independent_chains_4x3/default", 0x19d9cb67528e5461ull, 816},
  {"stats/independent_chains_4x3/pe3", 0xf810806cca10aae5ull, 813},
  {"stats/independent_chains_4x3/integrity", 0x45435b6293575291ull, 824},
  {"stats/independent_chains_4x3/barrier-k2", 0x3888fb998498edabull, 813},
  {"stats/independent_chains_4x3/cycle-cap", 0x551b72574a6930f0ull, 936},
  {"stats/independent_chains_4x3/token-cap", 0x43fbda35f4e69419ull, 937},
  {"stats/independent_chains_4x3/frame-exhausted", 0xd44ab45e1bde25a2ull, 814},
  {"stats/read_heavy_8/default", 0xe01620c1c43286b6ull, 807},
  {"stats/read_heavy_8/pe3", 0xee98de2d142517afull, 812},
  {"stats/read_heavy_8/integrity", 0x6876077402cf1d33ull, 818},
  {"stats/read_heavy_8/barrier-k2", 0xb8735f2ca841d2c9ull, 805},
  {"stats/read_heavy_8/cycle-cap", 0x7faeef5c80abf7c5ull, 801},
  {"stats/read_heavy_8/token-cap", 0x1f2e96e7d1aabfabull, 932},
  {"stats/read_heavy_8/frame-exhausted", 0x9fc078385493708aull, 805},
  {"stats/irreducible/default", 0xb38585974d615767ull, 878},
  {"stats/irreducible/pe3", 0x8cc9c15078f0c526ull, 880},
  {"stats/irreducible/integrity", 0x8bc77215d7e9f9edull, 886},
  {"stats/irreducible/barrier-k2", 0xb78048758df9c829ull, 877},
  {"stats/irreducible/cycle-cap", 0xa06d6b7460ef7699ull, 941},
  {"stats/irreducible/token-cap", 0x97aeba8a59cf2914ull, 963},
  {"stats/irreducible/frame-exhausted", 0xfa9c0b7b3949e629ull, 1670},
  {"stats/nested_loops_3x4/default", 0xbf7d5e452b28edcbull, 870},
  {"stats/nested_loops_3x4/pe3", 0x27c1d77b22d828ceull, 870},
  {"stats/nested_loops_3x4/integrity", 0xf85f25e8cbf28759ull, 878},
  {"stats/nested_loops_3x4/barrier-k2", 0x5ae514b2f61cd4a4ull, 869},
  {"stats/nested_loops_3x4/cycle-cap", 0x96a3392a356d6cffull, 962},
  {"stats/nested_loops_3x4/token-cap", 0x36f56920111affa6ull, 966},
  {"stats/nested_loops_3x4/frame-exhausted", 0x3f5e38f54e93a555ull, 1553},
  {"stats/chain_loop_6x8/default", 0xe41b624a51414dfeull, 868},
  {"stats/chain_loop_6x8/pe3", 0x55d211f8afbb851aull, 869},
  {"stats/chain_loop_6x8/integrity", 0x47d542f3834a23a9ull, 876},
  {"stats/chain_loop_6x8/barrier-k2", 0x789c3bd245a26706ull, 866},
  {"stats/chain_loop_6x8/cycle-cap", 0xece735fbe43411bbull, 959},
  {"stats/chain_loop_6x8/token-cap", 0xbe7f19139e08f5ebull, 967},
  {"stats/chain_loop_6x8/frame-exhausted", 0x673ed1535b623e3cull, 1551},
  {"stats/deadlock/default", 0xda1c82f70f85ee34ull, 1289},
  {"stats/deadlock/pe3", 0x8d859c29e678751cull, 1289},
  {"stats/deadlock/integrity", 0xca205a3653a331f9ull, 1295},
  {"stats/deadlock/barrier-k2", 0x36e65df834117b1dull, 1287},
  {"stats/deadlock/cycle-cap", 0xd7fd1ea3dd458664ull, 1283},
  {"stats/deadlock/token-cap", 0x72d38f831b404fd3ull, 1290},
  {"stats/deadlock/frame-exhausted", 0x82da41ee444b6758ull, 1287},
  {"cache/zero-miss", 0x78e59e0e7590d7c3ull, 196},
  {"cache/some-hit-memory", 0x7e2ac89eccd6c37bull, 206},
  {"cache/max-hit-disk", 0x8ad355227059720bull, 333},
  {"serve/running_example/run-default", 0x8b5a0191dd6b007aull, 1311},
  {"serve/running_example/run-mem-elim", 0xe8e0e79e2279e4c2ull, 1294},
  {"serve/running_example/run-schema1-pe2", 0x0d7ab184269ffed8ull, 1275},
  {"serve/running_example/run-frame-exhausted", 0xf6566ede08315587ull, 2224},
  {"serve/running_example/run-cycle-cap", 0x87c66b60a62db4eaull, 1340},
  {"serve/running_example/compile", 0x2be28480d19c52ccull, 369},
  {"serve/fig9/run-default", 0xa07b8d4cd4421f0aull, 1290},
  {"serve/fig9/run-mem-elim", 0xcb321bb5e1523267ull, 1288},
  {"serve/fig9/run-schema1-pe2", 0xe3e1fbe9dcf409c7ull, 1272},
  {"serve/fig9/run-frame-exhausted", 0xdacbd120831539fdull, 1137},
  {"serve/fig9/run-cycle-cap", 0x4ecf95d072a6188full, 1134},
  {"serve/fig9/compile", 0x45666b275e444e96ull, 358},
  {"serve/nested_bypass_4/run-default", 0x6fb564a1990f8c4eull, 1297},
  {"serve/nested_bypass_4/run-mem-elim", 0xb19f9dad00f134baull, 1294},
  {"serve/nested_bypass_4/run-schema1-pe2", 0xa482af2d32dc3b2cull, 1285},
  {"serve/nested_bypass_4/run-frame-exhausted", 0x8eeedc707ab27e3aull, 1144},
  {"serve/nested_bypass_4/run-cycle-cap", 0x5e1368383c5c4c2eull, 1320},
  {"serve/nested_bypass_4/compile", 0x714b6aa9464533dfull, 370},
  {"serve/fortran_alias/run-default", 0x3eaa06025b5db046ull, 1299},
  {"serve/fortran_alias/run-mem-elim", 0x5846b4c89b98cf94ull, 1299},
  {"serve/fortran_alias/run-schema1-pe2", 0xf40a689bf52538ffull, 1285},
  {"serve/fortran_alias/run-frame-exhausted", 0xd15853fb5ca5392bull, 1147},
  {"serve/fortran_alias/run-cycle-cap", 0xb6356ba4d091962dull, 1326},
  {"serve/fortran_alias/compile", 0x4b5258463918e7bdull, 370},
  {"serve/array_loop_10/run-default", 0x3af52252e4721bebull, 1327},
  {"serve/array_loop_10/run-mem-elim", 0xdf732de86d505301ull, 1309},
  {"serve/array_loop_10/run-schema1-pe2", 0x79743607550f9f77ull, 1291},
  {"serve/array_loop_10/run-frame-exhausted", 0x175ed691c72c9342ull, 2241},
  {"serve/array_loop_10/run-cycle-cap", 0xf94c48f7c51a8164ull, 1358},
  {"serve/array_loop_10/compile", 0xdad4288fecd257f0ull, 370},
  {"serve/independent_chains_4x3/run-default", 0x57231eceddfd3dfcull, 1288},
  {"serve/independent_chains_4x3/run-mem-elim", 0x7459c542e986a0e7ull, 1269},
  {"serve/independent_chains_4x3/run-schema1-pe2", 0x325cd8bf64f2990aull, 1277},
  {"serve/independent_chains_4x3/run-frame-exhausted", 0xe5a3077773364418ull, 1135},
  {"serve/independent_chains_4x3/run-cycle-cap", 0xef73be992453c401ull, 1131},
  {"serve/independent_chains_4x3/compile", 0x99de8c9e96776cffull, 380},
  {"serve/read_heavy_8/run-default", 0x7aee034884a21555ull, 1332},
  {"serve/read_heavy_8/run-mem-elim", 0x9c159196973f0cdbull, 1330},
  {"serve/read_heavy_8/run-schema1-pe2", 0xce224bf6f9b8d80bull, 1335},
  {"serve/read_heavy_8/run-frame-exhausted", 0xde401515c780df0eull, 1179},
  {"serve/read_heavy_8/run-cycle-cap", 0xdcd938603e6ce437ull, 1175},
  {"serve/read_heavy_8/compile", 0x5511b06ed3ab7c27ull, 370},
  {"serve/irreducible/run-default", 0x70ff4a75c35ca816ull, 1344},
  {"serve/irreducible/run-mem-elim", 0xa977e7b1b0dad885ull, 1337},
  {"serve/irreducible/run-schema1-pe2", 0x0380cf914e7ee925ull, 1296},
  {"serve/irreducible/run-frame-exhausted", 0xa85283d6e78ddcd3ull, 2403},
  {"serve/irreducible/run-cycle-cap", 0x6707b1ff543b1613ull, 1345},
  {"serve/irreducible/compile", 0x96fba676bf0dc7f1ull, 369},
  {"serve/nested_loops_3x4/run-default", 0x7c5b61d6cc89f260ull, 1329},
  {"serve/nested_loops_3x4/run-mem-elim", 0x49983bd97cf8a872ull, 1324},
  {"serve/nested_loops_3x4/run-schema1-pe2", 0x678eaf20008b223dull, 1307},
  {"serve/nested_loops_3x4/run-frame-exhausted", 0x8056a72f90141dc8ull, 2229},
  {"serve/nested_loops_3x4/run-cycle-cap", 0x07ac60341a2dca9bull, 1345},
  {"serve/nested_loops_3x4/compile", 0x0b7343f8a2f11601ull, 374},
  {"serve/chain_loop_6x8/run-default", 0x09d3bfb61a0cdc2cull, 1320},
  {"serve/chain_loop_6x8/run-mem-elim", 0x776b1fc84f20cd0eull, 1313},
  {"serve/chain_loop_6x8/run-schema1-pe2", 0x91908b42348c0597ull, 1285},
  {"serve/chain_loop_6x8/run-frame-exhausted", 0x16d70039ddfe0277ull, 2226},
  {"serve/chain_loop_6x8/run-cycle-cap", 0xa8e72e6e593df04full, 1346},
  {"serve/chain_loop_6x8/compile", 0xffa2f2cf64aa6108ull, 372},
  {"serve/cold-1/run-print-all", 0x56404b7405be8da7ull, 1477},
  {"serve/cold-1/run-mem-elim", 0xab1e7f3670f463a3ull, 1421},
  {"serve/cold-2/run-print-all", 0x8d499c66e8395ebfull, 1477},
  {"serve/cold-2/run-mem-elim", 0xfd1aa86204573345ull, 1423},
  {"serve/cold-3/run-print-all", 0x1068a5efce19aadbull, 1513},
  {"serve/cold-3/run-mem-elim", 0xfd4e1f73610c8e2aull, 1447},
  {"serve/cold-4/run-print-all", 0x6db03f72d062e311ull, 1477},
  {"serve/cold-4/run-mem-elim", 0x08e4b9421e1b4aa5ull, 1408},
  {"serve/cold-5/run-print-all", 0x612d6da164c6f158ull, 1480},
  {"serve/cold-5/run-mem-elim", 0xe82a3e4c71ef4684ull, 1430},
  {"serve/cold-6/run-print-all", 0x3fca5db13f8b4cf9ull, 1462},
  {"serve/cold-6/run-mem-elim", 0xa0251de2d15d4bb6ull, 1409},
  {"serve/cold-7/run-print-all", 0xca15cb7aa191a45aull, 1485},
  {"serve/cold-7/run-mem-elim", 0xc600562090caf43bull, 1432},
  {"serve/cold-8/run-print-all", 0x2627525b9b038093ull, 1440},
  {"serve/cold-8/run-mem-elim", 0x4366cdcd7645d902ull, 1377},
  {"serve/cold-9/run-print-all", 0x8e3178b290f9ada9ull, 1473},
  {"serve/cold-9/run-mem-elim", 0xa4b94b5222770d62ull, 1418},
  {"serve/cold-10/run-print-all", 0x0a8c135ea52af3ecull, 1459},
  {"serve/cold-10/run-mem-elim", 0x0d0975bb2d0cebb7ull, 1403},
  {"serve/cold-11/run-print-all", 0x0e61691e5df38323ull, 1479},
  {"serve/cold-11/run-mem-elim", 0x26e6de20943595e4ull, 1418},
  {"serve/cold-12/run-print-all", 0x0a28d0e3d84ff382ull, 1508},
  {"serve/cold-12/run-mem-elim", 0xd0f2aa725395ff35ull, 1454},
  {"serve/print-unknown", 0x31240bf4e61a6fb8ull, 1339},
  {"serve/id-escapes", 0xfb6f267095612fc8ull, 369},
  {"serve/id-true", 0xd7e402d3e53e2cdcull, 304},
  {"serve/id-float", 0x3d14feb2fba0b998ull, 303},
  {"serve/error-bad-json", 0xa4658bd2cdebf792ull, 125},
  {"serve/error-not-object", 0x26e8def88ed56658ull, 110},
  {"serve/error-unknown-op", 0xb7b0a603829e2c9bull, 96},
  {"serve/error-no-source", 0xc96c5fd9ec0a03e7ull, 110},
  {"serve/error-bad-value", 0xb9bd96267b67d722ull, 130},
  {"serve/error-unknown-option", 0x726730d90506be30ull, 108},
  {"serve/error-compile", 0x46f7d13b887c12b7ull, 119},
  {"serve/error-undeclared", 0xc8cf2f90d8f21efaull, 121},
  {"serve/error-deadline", 0x442fe489b217e16full, 127},
  {"serve/batch", 0x37871b88b35bf90aull, 110},
  {"serve/batch-empty", 0x7a7e2b1289e12cfeull, 109},
  {"serve/error-batch-no-requests", 0xd257ca19a17312afull, 109},
  {"serve/stats", 0x394b846bde07e7cdull, 304},
  {"serve/shutdown", 0xcfdb34d418527328ull, 55},
};
// clang-format on

std::uint64_t fnv(const std::string& s) {
  support::Fnv1a64 h;
  h.update_string(s);
  return h.digest();
}

std::string render(const std::string& row, const std::string& doc) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016" PRIx64 "ull, %zu},",
                row.c_str(), fnv(doc), doc.size());
  return buf;
}

/// Rows whose names start with `prefix` must match `actual` exactly:
/// same row set, same hash and size per row.
void expect_table(const std::string& prefix,
                  const std::vector<std::pair<std::string, std::string>>& actual) {
  std::map<std::string, std::string> table;
  for (const Golden& g : kGolden) {
    const std::string row = g.row;
    if (row.compare(0, prefix.size(), prefix) != 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 "},",
                  g.row, g.hash, g.bytes);
    table[row] = buf;
  }
  std::ostringstream mismatched;
  for (const auto& [row, doc] : actual) {
    const std::string line = render(row, doc);
    const auto it = table.find(row);
    if (it == table.end() || it->second != line)
      mismatched << "  " << line << "\n";
  }
  EXPECT_EQ(actual.size(), table.size()) << "the table has stale rows";
  EXPECT_TRUE(mismatched.str().empty())
      << "documents whose bytes differ from the table (actual rows):\n"
      << mismatched.str();
}

machine::MachineOptions machine_options(const std::vector<std::string>& flags) {
  machine::MachineOptions o = machine::default_cli_machine_options();
  for (const std::string& f : flags)
    EXPECT_EQ(machine::apply_machine_flag(o, f),
              machine::MachineFlagParse::kApplied)
        << f;
  return o;
}

/// A synch whose second input waits on a gate triggered by the synch
/// itself: nothing can fire after Start, so the run deadlocks.
machine::RunResult deadlocked_run(const machine::MachineOptions& o) {
  dfg::Graph g;
  dfg::Node s;
  s.kind = dfg::OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {0};
  const dfg::NodeId start = g.add(std::move(s));
  g.set_start(start);
  const dfg::NodeId sy = g.add_synch(2, "starved \"synch\"");
  g.connect({start, 0}, {sy, 0}, true);
  const dfg::NodeId gate = g.add_gate("never");
  g.bind_literal({gate, 0}, 0);
  g.connect({sy, 0}, {gate, 1}, true);
  g.connect({gate, 0}, {sy, 1}, true);
  dfg::Node e;
  e.kind = dfg::OpKind::kEnd;
  e.num_inputs = 1;
  const dfg::NodeId end = g.add(std::move(e));
  g.set_end(end);
  g.connect({sy, 0}, {end, 0}, true);
  return machine::run(machine::lower(g), 0, o);
}

const std::vector<std::pair<const char*, std::vector<std::string>>>
    kMachineFlagSets = {
        {"default", {}},
        {"pe3", {"--processors=3", "--network-latency=2"}},
        {"integrity", {"--check=integrity", "--mem-latency=3"}},
        {"barrier-k2", {"--barrier", "--loop-bound=2", "--width=2"}},
        {"cycle-cap", {"--max-cycles=25"}},
        {"token-cap", {"--max-tokens=40"}},
        {"frame-exhausted", {"--barrier", "--frame-capacity=1"}},
};

TEST(JsonBytes, StatsJsonMatchesTheRecordedTable) {
  std::vector<std::pair<std::string, std::string>> actual;
  for (const auto& np : lang::corpus::all()) {
    const core::CompileResult cr =
        core::Pipeline(translate::TranslateOptions::schema2_optimized())
            .run(np.source);
    for (const auto& [name, flags] : kMachineFlagSets) {
      const machine::MachineOptions o = machine_options(flags);
      const machine::RunResult r = core::execute(cr.image, o);
      actual.emplace_back("stats/" + np.name + "/" + name,
                          machine::render_stats_json(r.stats, o));
    }
  }
  for (const auto& [name, flags] : kMachineFlagSets) {
    const machine::MachineOptions o = machine_options(flags);
    const machine::RunResult r = deadlocked_run(o);
    EXPECT_FALSE(r.stats.completed) << name;
    actual.emplace_back(std::string("stats/deadlock/") + name,
                        machine::render_stats_json(r.stats, o));
  }
  expect_table("stats/", actual);
}

TEST(JsonBytes, CacheJsonMatchesTheRecordedTable) {
  std::vector<std::pair<std::string, std::string>> actual;
  core::CacheStats zero;
  actual.emplace_back(
      "cache/zero-miss",
      core::render_cache_json(zero, core::CacheDisposition::kMiss, 0));
  core::CacheStats some{3, 1, 7, 2, 1, 5, 40960};
  actual.emplace_back("cache/some-hit-memory",
                      core::render_cache_json(
                          some, core::CacheDisposition::kHitMemory,
                          0x0123456789abcdefull));
  const std::uint64_t max = ~std::uint64_t{0};
  core::CacheStats full{max, max, max, max, max, max, max};
  actual.emplace_back(
      "cache/max-hit-disk",
      core::render_cache_json(full, core::CacheDisposition::kHitDisk, max));
  expect_table("cache/", actual);
}

/// Zeroes the values of the timing keys so a response hashes the same
/// on every run: every digit inside "stage_nanos": {...}, and the
/// numbers after "exec_nanos": and "total_nanos":.
std::string mask_timings(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  const auto zero_digits = [&](std::size_t& i, char stop) {
    bool in_number = false;
    for (; i < s.size() && s[i] != stop; ++i) {
      if (std::isdigit(static_cast<unsigned char>(s[i]))) {
        if (!in_number) out.push_back('0');
        in_number = true;
      } else {
        out.push_back(s[i]);
        in_number = false;
      }
    }
  };
  for (std::size_t i = 0; i < s.size();) {
    const std::string_view rest(s.data() + i, s.size() - i);
    bool matched = false;
    for (const std::string_view key :
         {std::string_view("\"stage_nanos\": {"),
          std::string_view("\"exec_nanos\": "),
          std::string_view("\"total_nanos\": ")}) {
      if (rest.substr(0, key.size()) != key) continue;
      out.append(key);
      i += key.size();
      if (key.back() == '{') {
        zero_digits(i, '}');
      } else {
        out.push_back('0');
        while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
          ++i;
      }
      matched = true;
      break;
    }
    if (!matched) out.push_back(s[i++]);
  }
  return out;
}

std::string quoted(const std::string& s) {
  return "\"" + support::json_escape(s) + "\"";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + quoted(items[i]);
  return out + "]";
}

/// Every declared variable of `source`, scalars and arrays: the print
/// list perfbench's serve-cold requests carry.
std::vector<std::string> all_names(const std::string& source) {
  const lang::Program p = core::parse(source);
  std::vector<std::string> names;
  for (const lang::VarId v : p.symbols.all_vars())
    names.push_back(p.symbols.name(v));
  return names;
}

const std::vector<std::pair<const char*, std::vector<std::string>>>
    kServeOptionSets = {
        {"default", {}},
        {"mem-elim", {"--mem-elim"}},
        {"schema1-pe2", {"--schema1", "--processors=2", "--check=integrity"}},
        {"frame-exhausted", {"--barrier", "--frame-capacity=1"}},
        {"cycle-cap", {"--max-cycles=30"}},
};

TEST(JsonBytes, ServeResponsesMatchTheRecordedTable) {
  std::vector<std::pair<std::string, std::string>> actual;
  serve::ServeOptions so;
  so.cache.capacity = 6;  // small, so later requests evict
  serve::Server server(so);
  const auto send = [&](const std::string& row, const std::string& line) {
    actual.emplace_back("serve/" + row, mask_timings(server.handle_line(line)));
  };

  int id = 0;
  for (const auto& np : lang::corpus::all()) {
    for (const auto& [name, flags] : kServeOptionSets)
      send(np.name + "/run-" + name,
           "{\"id\": " + std::to_string(++id) +
               ", \"op\": \"run\", \"source\": " + quoted(np.source) +
               ", \"options\": " + json_list(flags) + "}");
    send(np.name + "/compile",
         "{\"id\": \"c-" + np.name + "\", \"op\": \"compile\", \"source\": " +
             quoted(np.source) + "}");
  }
  const std::vector<std::string> cold = testing::serve_cold_sources(12);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    const std::string name = "cold-" + std::to_string(i + 1);
    send(name + "/run-print-all",
         "{\"id\": " + std::to_string(++id) +
             ", \"op\": \"run\", \"source\": " + quoted(cold[i]) +
             ", \"print\": " + json_list(all_names(cold[i])) + "}");
    send(name + "/run-mem-elim",
         "{\"id\": " + std::to_string(++id) +
             ", \"op\": \"run\", \"source\": " + quoted(cold[i]) +
             ", \"options\": [\"--mem-elim\", \"--processors=2\"]}");
  }
  const std::string first = lang::corpus::all().front().source;
  send("print-unknown",
       "{\"id\": null, \"op\": \"run\", \"source\": " + quoted(first) +
           ", \"print\": [\"nope\", \"x\", \"tab\\t\"]}");
  send("id-escapes",
       "{\"id\": \"q\\\"\\\\\\n\\u0001\", \"op\": \"compile\", \"source\": " +
           quoted(first) + "}");
  send("id-true", "{\"id\": true, \"op\": \"stats\"}");
  send("id-float", "{\"id\": 2.5, \"op\": \"stats\"}");
  send("error-bad-json", "{\"id\": 1, \"op\": ");
  send("error-not-object", "[1, 2]");
  send("error-unknown-op", "{\"id\": 2, \"op\": \"fly\"}");
  send("error-no-source", "{\"id\": 3, \"op\": \"run\"}");
  send("error-bad-value",
       "{\"id\": 4, \"op\": \"run\", \"source\": \"var x;\\nx := 1;\\n\", "
       "\"options\": [\"--mem-latency=0\"]}");
  send("error-unknown-option",
       "{\"id\": 5, \"op\": \"run\", \"source\": \"var x;\\nx := 1;\\n\", "
       "\"options\": [\"--frobnicate\"]}");
  send("error-compile",
       "{\"id\": 6, \"op\": \"run\", \"source\": \"var x;\\nx := \\\"y;\\n\"}");
  send("error-undeclared",
       "{\"id\": 7, \"op\": \"compile\", \"source\": \"x := 1;\\n\"}");
  send("error-deadline",
       "{\"id\": 8, \"op\": \"run\", \"source\": \"var x;\\nx := 1;\\n\", "
       "\"deadline_ms\": -1}");
  send("batch",
       "{\"id\": \"b\", \"op\": \"run-batch\", \"options\": [\"--mem-elim\"], "
       "\"requests\": [{\"source\": " + quoted(first) + "}, "
       "{\"op\": \"compile\", \"source\": " + quoted(cold[0]) + "}, "
       "{\"source\": " + quoted(cold[1]) + ", \"options\": [\"--max-cycles=9\"]}, "
       "{\"op\": \"fly\"}, {\"op\": \"run-batch\", \"requests\": []}, "
       "{\"source\": \"var x;\\nx := 1 +;\\n\"}, "
       "{\"id\": 9, \"source\": " + quoted(cold[2]) +
           ", \"print\": [\"a\"]}]}");
  send("batch-empty", "{\"id\": 10, \"op\": \"run-batch\", \"requests\": []}");
  send("error-batch-no-requests", "{\"id\": 11, \"op\": \"run-batch\"}");
  send("stats", "{\"id\": 12, \"op\": \"stats\"}");
  send("shutdown", "{\"id\": 13, \"op\": \"shutdown\"}");
  expect_table("serve/", actual);
}

}  // namespace
}  // namespace ctdf
