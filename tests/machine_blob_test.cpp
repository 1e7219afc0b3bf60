// Blob round-trip and adversarial-input coverage (machine/blob.hpp).
//
// The round-trip property: for any program and any option ladder,
// lowering → serialize → deserialize → run produces the same final
// store and the same rendered --stats-json as running the in-memory
// image directly.
//
// The adversarial half feeds the reader every way a blob goes bad in
// the wild — truncation at each header boundary, bit rot in each
// header field and in the payload, format-generation skew, hash-valid
// but structurally inconsistent payloads — and asserts the *typed*
// rejection, because core/progcache.hpp's disk tier switches on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/pipeline.hpp"
#include "lang/corpus.hpp"
#include "lang/generator.hpp"
#include "machine/blob.hpp"
#include "machine/mutate.hpp"
#include "machine/report.hpp"
#include "support/forged_images.hpp"
#include "support/hash.hpp"

namespace ctdf::machine {
namespace {

struct Ladder {
  const char* name;
  core::PipelineOptions po;
};

std::vector<Ladder> option_ladder() {
  std::vector<Ladder> rungs;
  rungs.push_back({"schema1", translate::TranslateOptions::schema1()});
  rungs.push_back({"schema2", translate::TranslateOptions::schema2()});
  rungs.push_back(
      {"schema2-opt", translate::TranslateOptions::schema2_optimized()});
  auto mem = translate::TranslateOptions::schema2_optimized();
  mem.eliminate_memory = true;
  rungs.push_back({"mem-elim", mem});
  auto fused = translate::TranslateOptions::schema2_optimized();
  fused.eliminate_memory = true;
  fused.opt_level = dfg::OptLevel::kAll;
  rungs.push_back({"opt-all", fused});
  return rungs;
}

/// Lowers `prog` once, pushes the image through serialize →
/// deserialize, and runs original vs. decoded, requiring identical
/// stores and identical rendered stats JSON.
void expect_roundtrip(const lang::Program& prog, const core::PipelineOptions& po,
                      const std::string& label) {
  const ProgramImage original =
      core::make_program_image(core::Pipeline(po).run(prog));

  const std::vector<std::uint8_t> blob = serialize(original);
  const BlobReadResult read = deserialize(blob);
  ASSERT_TRUE(read.ok()) << label << ": " << read.message;
  EXPECT_EQ(read.blob_bytes, blob.size()) << label;
  EXPECT_EQ(read.content_hash, blob_content_hash(blob)) << label;

  // The memory image must survive verbatim — regions and names drive
  // execution and store rendering respectively.
  EXPECT_EQ(read.image.memory_cells, original.memory_cells) << label;
  ASSERT_EQ(read.image.names.size(), original.names.size()) << label;
  for (std::size_t i = 0; i < original.names.size(); ++i) {
    EXPECT_EQ(read.image.names[i].name, original.names[i].name) << label;
    EXPECT_EQ(read.image.names[i].base, original.names[i].base) << label;
    EXPECT_EQ(read.image.names[i].extent, original.names[i].extent) << label;
  }

  // Serialization is deterministic: same image, same bytes. This is
  // what makes the content hash a usable identity.
  EXPECT_EQ(serialize(read.image), blob) << label;

  const MachineOptions mopt;
  const RunResult fresh = core::execute(original, mopt);
  const RunResult decoded = core::execute(read.image, mopt);
  ASSERT_TRUE(fresh.stats.completed)
      << label << ": " << fresh.stats.error_detail.render();
  EXPECT_EQ(render_stats_json(decoded.stats, mopt),
            render_stats_json(fresh.stats, mopt))
      << label;
  EXPECT_EQ(decoded.store, fresh.store) << label;
}

TEST(BlobRoundTrip, CorpusProgramsAcrossTheOptionLadder) {
  const std::vector<std::pair<const char*, std::string>> corpus = {
      {"running-example", lang::corpus::running_example_source()},
      {"fig9", lang::corpus::fig9_source()},
      {"fortran-alias", lang::corpus::fortran_alias_source()},
      {"array-loop", lang::corpus::array_loop_source(6)},
      {"nested-loops", lang::corpus::nested_loops_source(2, 3)},
  };
  for (const auto& [name, source] : corpus) {
    const lang::Program prog = lang::parse_or_throw(source);
    for (const Ladder& rung : option_ladder())
      expect_roundtrip(prog, rung.po,
                       std::string(name) + " / " + rung.name);
  }
}

TEST(BlobRoundTrip, IStructureArraysSurviveSerialization) {
  const lang::Program prog =
      lang::parse_or_throw(lang::corpus::array_loop_source(6));
  auto topt = translate::TranslateOptions::schema2_optimized();
  topt.istructure_arrays = {"x"};
  core::PipelineOptions po(topt);
  const ProgramImage image =
      core::make_program_image(core::Pipeline(po).run(prog));
  ASSERT_FALSE(image.istructures.empty());
  expect_roundtrip(prog, po, "array-loop / istructure");
}

TEST(BlobRoundTrip, RandomProgramsHoldTheProperty) {
  lang::GeneratorOptions gen;
  gen.num_arrays = 1;
  gen.allow_unstructured = true;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const lang::Program prog = lang::generate_program(gen, seed);
    auto mem = translate::TranslateOptions::schema2_optimized();
    mem.eliminate_memory = true;
    expect_roundtrip(prog, translate::TranslateOptions::schema2_optimized(),
                     "random seed " + std::to_string(seed));
    expect_roundtrip(prog, mem,
                     "random seed " + std::to_string(seed) + " mem-elim");
  }
}

class BlobAdversarial : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto cr =
        core::Pipeline(core::PipelineOptions(
                           translate::TranslateOptions::schema2_optimized()))
            .run(lang::corpus::running_example_source());
    blob_ = serialize(core::make_program_image(cr));
    ASSERT_GT(blob_.size(), kBlobHeaderSize);
  }

  std::vector<std::uint8_t> blob_;
};

TEST_F(BlobAdversarial, TruncationAtEveryHeaderBoundaryIsTyped) {
  // Any prefix shorter than the fixed header — including the empty
  // input and cuts inside magic/version/size/hash — is kTruncated; no
  // field is interpreted before the header is complete.
  for (std::size_t len = 0; len <= kBlobHeaderSize; ++len) {
    const BlobReadResult r = deserialize(
        std::span<const std::uint8_t>(blob_.data(), len));
    if (len < kBlobHeaderSize) {
      EXPECT_EQ(r.error, BlobError::kTruncated) << "prefix " << len;
    } else {
      // A bare header: complete, but the declared payload is missing.
      EXPECT_EQ(r.error, BlobError::kTruncated) << "bare header";
      EXPECT_NE(r.message.find("payload truncated"), std::string::npos);
    }
  }
}

TEST_F(BlobAdversarial, TruncationInsideThePayloadIsTyped) {
  const std::size_t cuts[] = {kBlobHeaderSize + 1,
                              kBlobHeaderSize + (blob_.size() - kBlobHeaderSize) / 2,
                              blob_.size() - 1};
  for (const std::size_t len : cuts) {
    const BlobReadResult r = deserialize(
        std::span<const std::uint8_t>(blob_.data(), len));
    EXPECT_EQ(r.error, BlobError::kTruncated) << "prefix " << len;
  }
}

TEST_F(BlobAdversarial, EverySingleBytePayloadCorruptionIsCaughtByTheHash) {
  for (std::size_t at = kBlobHeaderSize; at < blob_.size(); ++at) {
    std::vector<std::uint8_t> bad = blob_;
    bad[at] ^= 0x5a;
    const BlobReadResult r = deserialize(bad);
    ASSERT_EQ(r.error, BlobError::kHashMismatch) << "byte " << at;
  }
}

TEST_F(BlobAdversarial, MagicCorruptionAtEachByteIsBadMagic) {
  for (std::size_t at = 0; at < kBlobMagicSize; ++at) {
    std::vector<std::uint8_t> bad = blob_;
    bad[at] ^= 0xff;
    EXPECT_EQ(deserialize(bad).error, BlobError::kBadMagic) << "byte " << at;
  }
}

TEST_F(BlobAdversarial, WrongFormatGenerationIsRejectedBeforeTheHash) {
  std::vector<std::uint8_t> bad = blob_;
  bad[kBlobMagicSize] = static_cast<std::uint8_t>(kBlobVersion + 1);
  const BlobReadResult r = deserialize(bad);
  EXPECT_EQ(r.error, BlobError::kBadVersion);
  EXPECT_NE(r.message.find("version " +
                           std::to_string(kBlobVersion + 1)),
            std::string::npos)
      << r.message;
  // The future-version blob was rejected on the version field alone —
  // its (hypothetically reorganized) payload was never hashed.
  EXPECT_EQ(r.content_hash, 0u);
}

TEST_F(BlobAdversarial, ReservedHeaderBytesAreIgnored) {
  // The reserved word exists so version 1 readers tolerate a future
  // flags field; scribbling on it must not invalidate the blob.
  std::vector<std::uint8_t> bent = blob_;
  for (std::size_t at = 12; at < 16; ++at) bent[at] = 0xee;
  EXPECT_TRUE(deserialize(bent).ok());
}

TEST_F(BlobAdversarial, PayloadSizeSkewIsTyped) {
  // Declared size one past the available bytes: truncation.
  std::vector<std::uint8_t> grown = blob_;
  grown[16] += 1;  // low byte of the little-endian size field
  EXPECT_EQ(deserialize(grown).error, BlobError::kTruncated);
  // Declared size one short: the hash, computed over the declared
  // extent, no longer matches.
  std::vector<std::uint8_t> shrunk = blob_;
  shrunk[16] -= 1;
  EXPECT_EQ(deserialize(shrunk).error, BlobError::kHashMismatch);
}

TEST_F(BlobAdversarial, HashFieldCorruptionIsHashMismatch) {
  std::vector<std::uint8_t> bad = blob_;
  bad[24] ^= 0x01;
  EXPECT_EQ(deserialize(bad).error, BlobError::kHashMismatch);
}

/// `header` (from a valid blob) with its size and hash fields rewritten
/// for `payload`, followed by `payload`: what an adversarial writer
/// produces, so the integrity header passes whatever the payload says.
std::vector<std::uint8_t> forge(std::span<const std::uint8_t> header,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> forged(kBlobHeaderSize + payload.size());
  std::copy_n(header.begin(), kBlobHeaderSize, forged.begin());
  std::copy(payload.begin(), payload.end(), forged.begin() + kBlobHeaderSize);
  const std::uint64_t size = payload.size();
  const std::uint64_t hash =
      support::content_hash64(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    forged[16 + i] = static_cast<std::uint8_t>(size >> (8 * i));
    forged[24 + i] = static_cast<std::uint8_t>(hash >> (8 * i));
  }
  return forged;
}

/// `v` as the payload encodes it: little-endian, `bytes` wide.
std::vector<std::uint8_t> le_bytes(std::uint64_t v, int bytes) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return out;
}

/// Where the operand tables start in `payload` (the u32 count of the
/// literal flags), or npos. Lowering lays the flags out op by op, port
/// by port.
std::size_t operand_tables_at(const ExecProgram& ep,
                              const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> flags;
  for (std::uint32_t i = 0; i < ep.num_ops(); ++i)
    for (std::uint16_t p = 0; p < ep.op(i).num_inputs; ++p)
      flags.push_back(ep.literal_at(ep.op(i), p) ? 1 : 0);
  const auto n = static_cast<std::uint32_t>(flags.size());
  std::vector<std::uint8_t> needle = le_bytes(n, 4);
  needle.insert(needle.end(), flags.begin(), flags.end());
  const auto count = le_bytes(n, 4);
  needle.insert(needle.end(), count.begin(), count.end());
  const auto at = std::search(payload.begin(), payload.end(), needle.begin(),
                              needle.end());
  return at == payload.end() ? std::string::npos
                             : static_cast<std::size_t>(at - payload.begin());
}

/// Shrinks both operand tables, which start at `at`, by their last
/// `drop` entries.
void drop_operands(std::vector<std::uint8_t>& payload, std::size_t at,
                   std::uint32_t n, std::uint32_t drop) {
  const auto kept = le_bytes(n - drop, 4);
  const std::size_t values = at + 4 + n;  // the u32 count of the values
  const auto values_end = payload.begin() + static_cast<std::ptrdiff_t>(
                                                values + 4 + 8 * n);
  payload.erase(values_end - 8 * drop, values_end);
  std::copy(kept.begin(), kept.end(), payload.begin() + values);
  const auto flags_end =
      payload.begin() + static_cast<std::ptrdiff_t>(at + 4 + n);
  payload.erase(flags_end - drop, flags_end);
  std::copy(kept.begin(), kept.end(), payload.begin() + at);
}

TEST_F(BlobAdversarial, HashValidOperandTablesOfDifferentLengthsAreMalformed) {
  // Every literal flag needs its value: the blank frame the decoder
  // derives reads one per literal port. Drop the last value only.
  const BlobReadResult read = deserialize(blob_);
  ASSERT_TRUE(read.ok()) << read.message;
  std::vector<std::uint8_t> payload(blob_.begin() + kBlobHeaderSize,
                                    blob_.end());
  const std::size_t at = operand_tables_at(read.image.exec, payload);
  ASSERT_NE(at, std::string::npos);
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < read.image.exec.num_ops(); ++i)
    n += read.image.exec.op(i).num_inputs;
  ASSERT_GT(n, 0u);
  const auto values = payload.begin() + static_cast<std::ptrdiff_t>(at + 4 + n);
  const auto fewer = le_bytes(n - 1, 4);
  std::copy(fewer.begin(), fewer.end(), values);
  payload.erase(values + 4 + 8 * (n - 1), values + 4 + 8 * n);
  const BlobReadResult r = deserialize(forge(blob_, payload));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("operand tables differ in length"),
            std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidFrameLargerThanItsOperandsIsMalformed) {
  // Lowering gives every operand one frame slot at most, which bounds
  // the derived blank frame by the blob's size. Forge a blob whose ops
  // share operand entries: start -> add -> end, with end's one token
  // port pointed at add's first operand and the tables cut to add's.
  dfg::Graph g;
  dfg::Node s;
  s.kind = dfg::OpKind::kStart;
  s.num_outputs = 2;
  s.start_values = {1, 2};
  const dfg::NodeId start = g.add(std::move(s));
  g.set_start(start);
  const dfg::NodeId add = g.add_binop(lang::BinOp::kAdd);
  g.connect({start, 0}, {add, 0}, true);
  g.connect({start, 1}, {add, 1}, true);
  dfg::Node e;
  e.kind = dfg::OpKind::kEnd;
  e.num_inputs = 1;
  const dfg::NodeId end = g.add(std::move(e));
  g.set_end(end);
  g.connect({add, 0}, {end, 0}, true);
  ProgramImage image;
  image.exec = lower(g);
  ASSERT_EQ(image.exec.frame_slots(), 3u);
  const std::vector<std::uint8_t> blob = serialize(image);
  std::vector<std::uint8_t> payload(blob.begin() + kBlobHeaderSize,
                                    blob.end());
  ASSERT_TRUE(deserialize(forge(blob, payload)).ok());

  // The op records run from offset 4 to the start/end/geometry fields.
  std::vector<std::uint8_t> geometry = le_bytes(start.value(), 4);
  for (const auto& f : {le_bytes(end.value(), 4), le_bytes(3, 8),
                        le_bytes(2, 8)})
    geometry.insert(geometry.end(), f.begin(), f.end());
  const auto ops_end = std::search(payload.begin(), payload.end(),
                                   geometry.begin(), geometry.end());
  ASSERT_NE(ops_end, payload.end());
  const std::size_t record = static_cast<std::size_t>(ops_end - payload.begin() - 4) / 3;
  // first_operand follows kind, flags and three u16 arities.
  const auto zero = le_bytes(0, 4);
  std::copy(zero.begin(), zero.end(),
            payload.begin() + static_cast<std::ptrdiff_t>(4 + 2 * record + 8));
  const std::size_t at = operand_tables_at(image.exec, payload);
  ASSERT_NE(at, std::string::npos);
  drop_operands(payload, at, 3, 1);

  const BlobReadResult r = deserialize(forge(blob, payload));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("frame larger than the operand table"),
            std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidTrailingGarbageIsMalformed) {
  // The structural decoder must notice that a re-hashed image does not
  // consume the whole payload.
  std::vector<std::uint8_t> payload(blob_.begin() + kBlobHeaderSize,
                                    blob_.end());
  payload.push_back(0);
  const BlobReadResult r = deserialize(forge(blob_, payload));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("trailing bytes"), std::string::npos) << r.message;
}

TEST_F(BlobAdversarial, HashValidFanoutIndexIsMalformed) {
  // The fan-out index must start at 0 and never decrease: a span
  // [begin[p], begin[p + 1]) past the destination table would make the
  // engine read out of bounds, even with the last entry correct. Find
  // the serialized index (its u32 count, then the entries) and bend
  // one entry at a time.
  const BlobReadResult read = deserialize(blob_);
  ASSERT_TRUE(read.ok()) << read.message;
  const std::span<const std::uint32_t> index =
      read.image.exec.tables().fanout_begin;
  ASSERT_GE(index.size(), 3u);
  const auto u32_bytes = [](std::uint32_t v) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  };
  std::vector<std::uint8_t> needle =
      u32_bytes(static_cast<std::uint32_t>(index.size()));
  for (const std::uint32_t v : index) {
    const auto b = u32_bytes(v);
    needle.insert(needle.end(), b.begin(), b.end());
  }
  const std::vector<std::uint8_t> payload(blob_.begin() + kBlobHeaderSize,
                                          blob_.end());
  const auto at = std::search(payload.begin(), payload.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(at, payload.end());
  const std::size_t entries =
      static_cast<std::size_t>(at - payload.begin()) + 4;
  const auto bent = [&](std::size_t entry, std::uint32_t value) {
    std::vector<std::uint8_t> p = payload;
    const auto b = u32_bytes(value);
    std::copy(b.begin(), b.end(), p.begin() + entries + 4 * entry);
    return deserialize(forge(blob_, p));
  };
  // An inner entry far past the table: the index now decreases after it.
  const std::uint32_t past = index.back() + 1000;
  BlobReadResult r = bent(1, past);
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("fan-out index decreases"), std::string::npos)
      << r.message;
  // A first entry other than 0.
  r = bent(0, 1);
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("fan-out index does not start at 0"),
            std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidArityUndercountIsMalformed) {
  // A buggy writer's blob can hash correctly yet record an op that
  // fires one token early. Frames are not zero-filled, so that firing
  // would read a slot no token wrote; the decoder rejects it instead.
  BlobReadResult read = deserialize(blob_);
  ASSERT_TRUE(read.ok()) << read.message;
  ASSERT_TRUE(apply_mutation(read.image.exec, Mutation::kUndercountArity));
  const BlobReadResult r = deserialize(serialize(read.image));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("different number of tokens"), std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidRegionsOutsideMemoryAreMalformed) {
  // The engine marks I-structure and shared cells without a bounds
  // check, so a region must lie inside [0, memory_cells).
  const BlobReadResult read = deserialize(blob_);
  ASSERT_TRUE(read.ok()) << read.message;
  const auto cells = static_cast<std::uint32_t>(read.image.memory_cells);
  ASSERT_GT(cells, 0u);
  const struct {
    std::vector<lang::CellRegion> istructures, shared;
    const char* why;
  } rows[] = {
      {{{0, 4000000000u}}, {}, "I-structure region outside memory"},
      {{{cells, 1}}, {}, "I-structure region outside memory"},
      {{{UINT32_MAX, 2}}, {}, "I-structure region outside memory"},
      {{}, {{cells - 1, 2}}, "shared region outside memory"},
  };
  for (const auto& row : rows) {
    ProgramImage image = read.image;
    image.istructures = row.istructures;
    image.shared = row.shared;
    const BlobReadResult r = deserialize(serialize(image));
    EXPECT_EQ(r.error, BlobError::kMalformed) << row.why;
    EXPECT_NE(r.message.find(row.why), std::string::npos) << r.message;
  }
  // A region that fills memory exactly is fine.
  ProgramImage whole = read.image;
  whole.istructures = {{0, cells}};
  whole.shared = {{0, cells}};
  EXPECT_TRUE(deserialize(serialize(whole)).ok());
}

/// start -> a[1] := 9 -> end, where the indexed store covers
/// [base, base + extent), lowered into an image of `cells` cells.
ProgramImage indexed_store_image(std::uint32_t base, std::int64_t extent,
                                 std::uint64_t cells) {
  dfg::Graph g;
  dfg::Node s;
  s.kind = dfg::OpKind::kStart;
  s.num_outputs = 1;
  s.start_values = {0};
  const dfg::NodeId start = g.add(std::move(s));
  g.set_start(start);
  const dfg::NodeId store = g.add_store_idx(base, extent, "a[1]");
  g.bind_literal({store, 0}, 9);
  g.bind_literal({store, 1}, 1);
  g.connect({start, 0}, {store, 2}, true);
  dfg::Node e;
  e.kind = dfg::OpKind::kEnd;
  e.num_inputs = 1;
  const dfg::NodeId end = g.add(std::move(e));
  g.set_end(end);
  g.connect({store, 0}, {end, 0}, true);
  ProgramImage image;
  image.exec = lower(g);
  image.memory_cells = cells;
  return image;
}

TEST_F(BlobAdversarial, HashValidMemoryOpsOutsideMemoryAreMalformed) {
  // resolve_mem indexes the cell an op addresses without a bounds check
  // and wraps an index by the op's extent, so a memory op's cells must
  // lie inside memory and span at least one cell.
  const BlobReadResult fits =
      deserialize(serialize(indexed_store_image(1, 4, 5)));
  ASSERT_TRUE(fits.ok()) << fits.message;
  const RunResult ran = core::execute(fits.image, MachineOptions{});
  ASSERT_TRUE(ran.stats.completed) << ran.stats.error_detail.render();
  EXPECT_EQ(ran.store.cells[2], 9);

  const struct {
    std::uint32_t base;
    std::int64_t extent;
    std::uint64_t cells;
    const char* why;
  } rows[] = {
      {1, 4, 4, "memory op cell range outside memory"},
      {0, 1, 0, "memory op cell range outside memory"},
      {UINT32_MAX, 2, 8, "memory op cell range outside memory"},
      {0, INT64_MAX, 8, "memory op cell range outside memory"},
      {0, 0, 4, "memory op extent below 1"},
      {0, -3, 4, "memory op extent below 1"},
  };
  for (const auto& row : rows) {
    const BlobReadResult r = deserialize(
        serialize(indexed_store_image(row.base, row.extent, row.cells)));
    EXPECT_EQ(r.error, BlobError::kMalformed)
        << row.base << "+" << row.extent << " of " << row.cells;
    EXPECT_NE(r.message.find(row.why), std::string::npos) << r.message;
  }

  // A compiled program's scalar loads and stores over no memory at all.
  BlobReadResult read = deserialize(blob_);
  ASSERT_TRUE(read.ok()) << read.message;
  read.image.memory_cells = 0;
  const BlobReadResult r = deserialize(serialize(read.image));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("memory op cell range outside memory"),
            std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidMemoryFlagMismatchIsMalformed) {
  // The engine sends an op with the memory flag to resolve_mem, which
  // knows only the memory kinds, and one without it to the pure-op
  // firing, which knows none of them: the flag must match the op's
  // kind. The second op's flags byte follows the u32 op count, the
  // first op's 49-byte record (blob.cpp's encoder) and its kind byte.
  constexpr std::size_t kOpRecordBytes = 49;
  std::vector<std::uint8_t> payload(blob_.begin() + kBlobHeaderSize,
                                    blob_.end());
  payload[4 + kOpRecordBytes + 1] ^= kExecMem;
  const BlobReadResult r = deserialize(forge(blob_, payload));
  EXPECT_EQ(r.error, BlobError::kMalformed);
  EXPECT_NE(r.message.find("memory flag does not match"), std::string::npos)
      << r.message;
}

TEST_F(BlobAdversarial, HashValidLoopExitOutsideALoopIsATypedMachineError) {
  // The decoder checks tables and ranges, not which context a token
  // reaches: this blob decodes, and its run must fail with a typed
  // error instead of aborting the process.
  const BlobReadResult read =
      deserialize(serialize(testing::loop_exit_outside_loop_image()));
  ASSERT_TRUE(read.ok()) << read.message;
  const RunResult r = core::execute(read.image, MachineOptions{});
  EXPECT_FALSE(r.stats.completed);
  EXPECT_EQ(r.stats.error_detail.code, ErrorCode::kLoopExitOutsideLoop);
  EXPECT_EQ(r.stats.error_detail.render(),
            "loop exit 'X' fired outside an iteration context");
}

TEST_F(BlobAdversarial, NotABlobAtAllIsBadMagic) {
  const std::string junk(64, 'x');
  const BlobReadResult r = deserialize(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size()));
  EXPECT_EQ(r.error, BlobError::kBadMagic);
}

TEST(BlobFiles, MissingFileIsUnreadableNotTruncated) {
  const BlobReadResult r =
      read_blob_file("/nonexistent/ctdf-blob-test/none.ctdfblob");
  EXPECT_EQ(r.error, BlobError::kUnreadable);
}

TEST(BlobFiles, WriteThenReadRoundTrips) {
  const auto cr =
      core::Pipeline(core::PipelineOptions(
                         translate::TranslateOptions::schema2_optimized()))
          .run(lang::corpus::running_example_source());
  const std::vector<std::uint8_t> blob =
      serialize(core::make_program_image(cr));
  const std::string path =
      ::testing::TempDir() + "/ctdf_blob_roundtrip.ctdfblob";
  ASSERT_TRUE(write_blob_file(path, blob));
  const BlobReadResult r = read_blob_file(path);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(serialize(r.image), blob);
}

/// write_blob_file publishes via write-to-tmp + rename, so a reader
/// racing two writers of the same path must always see one complete
/// blob — old bytes or new bytes, never a torn mix (which would
/// surface as a truncated/hash-mismatch read).
TEST(BlobFiles, ConcurrentWritersNeverExposeATornBlob) {
  const auto blob_of = [](const std::string& source) {
    const auto cr =
        core::Pipeline(core::PipelineOptions(
                           translate::TranslateOptions::schema2_optimized()))
            .run(source);
    return serialize(core::make_program_image(cr));
  };
  const std::vector<std::uint8_t> a =
      blob_of(lang::corpus::running_example_source());
  const std::vector<std::uint8_t> b = blob_of(lang::corpus::fig9_source());
  ASSERT_NE(a, b);

  const std::string path = ::testing::TempDir() + "/ctdf_blob_torn.ctdfblob";
  ASSERT_TRUE(write_blob_file(path, a));

  std::atomic<bool> stop{false};
  const auto writer = [&](const std::vector<std::uint8_t>& first,
                          const std::vector<std::uint8_t>& second) {
    for (int i = 0; i < 200 && !stop.load(); ++i)
      EXPECT_TRUE(write_blob_file(path, (i & 1) ? second : first));
  };
  std::thread w1(writer, std::cref(a), std::cref(b));
  std::thread w2(writer, std::cref(b), std::cref(a));
  int reads = 0;
  for (; reads < 500; ++reads) {
    const BlobReadResult r = read_blob_file(path);
    if (!r.ok()) {
      ADD_FAILURE() << "torn read after " << reads
                    << " good ones: " << to_string(r.error) << ": "
                    << r.message;
      stop.store(true);
      break;
    }
    const std::vector<std::uint8_t> seen = serialize(r.image);
    EXPECT_TRUE(seen == a || seen == b) << "read a blob neither writer wrote";
  }
  w1.join();
  w2.join();
  std::remove(path.c_str());
}

TEST(BlobErrors, SlugsAreGolden) {
  // scripts and CLI tests grep these exact strings ("blob error [...]").
  EXPECT_STREQ(to_string(BlobError::kNone), "none");
  EXPECT_STREQ(to_string(BlobError::kUnreadable), "unreadable");
  EXPECT_STREQ(to_string(BlobError::kBadMagic), "bad-magic");
  EXPECT_STREQ(to_string(BlobError::kBadVersion), "version-mismatch");
  EXPECT_STREQ(to_string(BlobError::kTruncated), "truncated");
  EXPECT_STREQ(to_string(BlobError::kHashMismatch), "hash-mismatch");
  EXPECT_STREQ(to_string(BlobError::kMalformed), "malformed");
}

}  // namespace
}  // namespace ctdf::machine
