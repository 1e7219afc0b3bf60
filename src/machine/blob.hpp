// Versioned binary serialization of a lowered program — the
// compile-once half of the serve architecture (ROADMAP item 1; the
// blob/executor split mirrors how compiled NN-graph stacks ship
// serialized artifacts to a thin runtime).
//
// A blob carries a ProgramImage: the machine::ExecProgram plus the
// memory image machine::run needs (cell count, I-structure and shared
// regions) and the name→cell table used to render stores by variable
// name. Deserializing a blob and running it produces stores and
// semantic counters byte-identical to running the freshly lowered
// program (tests/machine_blob_test.cpp sweeps this).
//
// Wire format (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     8  magic "CTDFBLOB"
//        8     4  format version (kBlobVersion)
//       12     4  reserved (zero)
//       16     8  payload size in bytes
//       24     8  content hash: Fnv1a64+splitmix over the payload
//       32     –  payload (field-by-field ExecProgram + image encoding)
//
// The content hash doubles as the blob's identity (the "content
// address" of core/progcache.hpp's disk tier). Readers verify magic,
// version, size, and hash — in that order — before touching the
// payload, so truncation and bit rot surface as typed BlobErrors, never
// as a malformed ExecProgram. A hash-valid payload is then checked
// wherever the engine indexes without checking: table ranges, the
// frame layout, and memory (every region and every memory op's cells
// inside the image's memory_cells), so a blob from a buggy or hostile
// writer that would index out of bounds is kMalformed. Versioning
// policy: any change to the payload encoding, the header, or the hash
// function bumps kBlobVersion; old blobs are rejected with kBadVersion
// (callers fall back to recompilation — there is no migration path,
// blobs are a cache artifact, not an archival format).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "machine/exec.hpp"
#include "machine/machine.hpp"

namespace ctdf::machine {

inline constexpr std::uint32_t kBlobVersion = 1;
inline constexpr std::size_t kBlobMagicSize = 8;
inline constexpr std::size_t kBlobHeaderSize = 32;
inline constexpr char kBlobMagic[kBlobMagicSize + 1] = "CTDFBLOB";

/// One named storage binding of the memory image (scalar or array).
/// Kept in the blob so a deserialized program can render its final
/// store by variable name (CLI --print, serve "store" objects) without
/// the source program's symbol table.
struct NamedCell {
  std::string name;
  std::uint32_t base = 0;
  /// 0 = scalar occupying `base`; > 0 = array of this many cells.
  std::int64_t extent = 0;
};

/// Everything machine::run needs to execute a program: the lowered
/// ExecProgram and its memory image. This — not the bare ExecProgram —
/// is the unit the blob format serializes and the program cache stores.
struct ProgramImage {
  ExecProgram exec;
  std::uint64_t memory_cells = 0;
  std::vector<lang::CellRegion> istructures;
  std::vector<lang::CellRegion> shared;
  std::vector<NamedCell> names;
};

/// Typed rejection taxonomy, checked in declaration order by readers.
enum class BlobError : std::uint8_t {
  kNone = 0,
  kUnreadable,     ///< file missing / not readable (file API only)
  kBadMagic,       ///< not a ctdf blob at all
  kBadVersion,     ///< a ctdf blob of another format generation
  kTruncated,      ///< shorter than the header or the declared payload
  kHashMismatch,   ///< payload bytes do not match the integrity header
  kMalformed,      ///< hash-valid payload with inconsistent structure
};

[[nodiscard]] const char* to_string(BlobError e);

struct BlobReadResult {
  BlobError error = BlobError::kNone;
  /// Human-readable detail ("blob version 7, expected 1", ...).
  std::string message;
  /// Valid only when error == kNone.
  ProgramImage image;
  /// The verified payload hash (the blob's content address); 0 unless
  /// the read got far enough to check it.
  std::uint64_t content_hash = 0;
  /// Total blob size in bytes (header + payload) when known.
  std::uint64_t blob_bytes = 0;

  [[nodiscard]] bool ok() const { return error == BlobError::kNone; }
};

/// Serializes an image into a self-contained blob (header + payload).
[[nodiscard]] std::vector<std::uint8_t> serialize(const ProgramImage& image);

/// Verifies and decodes a blob. Never throws: every malformed input
/// maps to a typed BlobError so callers can fall back to recompiling.
[[nodiscard]] BlobReadResult deserialize(std::span<const std::uint8_t> bytes);

/// Content hash of an already-serialized blob's payload without
/// decoding it (reads the header field; does not verify).
[[nodiscard]] std::uint64_t blob_content_hash(
    std::span<const std::uint8_t> bytes);

/// File convenience wrappers. write_blob_file returns false when the
/// path cannot be created/written; read_blob_file reports kUnreadable
/// for missing/unopenable files and otherwise behaves as deserialize.
[[nodiscard]] bool write_blob_file(const std::string& path,
                                   std::span<const std::uint8_t> bytes);
[[nodiscard]] BlobReadResult read_blob_file(const std::string& path);

}  // namespace ctdf::machine
