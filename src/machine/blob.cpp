#include "machine/blob.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/assert.hpp"
#include "support/hash.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace ctdf::machine {

namespace {

long current_pid() {
#ifdef _WIN32
  return static_cast<long>(_getpid());
#else
  return static_cast<long>(::getpid());
#endif
}

/// Little-endian writer of fixed-width fields into a buffer that
/// Sizer has already sized: each field is one store.
class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { le(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }

  [[nodiscard]] const std::uint8_t* position() const { return out_; }

 private:
  template <typename T>
  void le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out_, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i)
        out_[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    out_ += sizeof v;
  }
  std::uint8_t* out_;
};

/// Counts the bytes a Writer would write for the same calls.
class Sizer {
 public:
  void u8(std::uint8_t) { bytes += 1; }
  void u16(std::uint16_t) { bytes += 2; }
  void u32(std::uint32_t) { bytes += 4; }
  void u64(std::uint64_t) { bytes += 8; }
  void i64(std::int64_t) { bytes += 8; }
  void str(const std::string& s) { bytes += 4 + s.size(); }

  std::size_t bytes = 0;
};

/// Bounds-checked little-endian reader: any overrun latches `ok` false
/// and subsequent reads return zero, so the decoder can run to the end
/// and report one typed kTruncated/kMalformed instead of crashing.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  std::string str() {
    const std::uint32_t n = u32();
    if (pos_ + n > in_.size()) {
      ok = false;
      pos_ = in_.size();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == in_.size(); }
  bool ok = true;

 private:
  std::uint64_t le(int bytes) {
    if (pos_ + static_cast<std::size_t>(bytes) > in_.size()) {
      ok = false;
      pos_ = in_.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (8 * i);
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace

/// Private-field access for the blob codec (befriended by ExecProgram).
/// Every ExecProgram member is written and read here, field by field,
/// in one fixed order — the payload layout documented in blob.hpp —
/// except the frame data decode() derives once the checks pass.
struct BlobCodec {
  template <typename W>
  static void encode(const ExecProgram& p, W& w) {
    w.u32(static_cast<std::uint32_t>(p.ops_.size()));
    for (const ExecOp& op : p.ops_) {
      w.u8(static_cast<std::uint8_t>(op.kind));
      w.u8(op.flags);
      w.u16(op.num_inputs);
      w.u16(op.num_outputs);
      w.u16(op.consumed_inputs);
      w.u32(op.first_operand);
      w.u32(op.first_port);
      w.u32(op.frame_base);
      w.u32(op.strict_index);
      w.u8(static_cast<std::uint8_t>(op.bop));
      w.u8(static_cast<std::uint8_t>(op.uop));
      w.u32(op.mem_base);
      w.i64(op.mem_extent);
      w.u32(op.loop.value());
      w.u8(static_cast<std::uint8_t>(op.macro_head));
      w.u16(op.num_steps);
      w.u32(op.first_step);
    }
    w.u32(p.start_.value());
    w.u32(p.end_.value());
    w.u64(p.frame_slots_);
    w.u64(p.num_framed_);

    w.u32(static_cast<std::uint32_t>(p.start_values_.size()));
    for (const std::int64_t v : p.start_values_) w.i64(v);

    w.u32(static_cast<std::uint32_t>(p.fanout_begin_.size()));
    for (const std::uint32_t v : p.fanout_begin_) w.u32(v);

    w.u32(static_cast<std::uint32_t>(p.fanout_.size()));
    for (const ExecDest& d : p.fanout_) {
      w.u32(d.node.value());
      w.u16(d.port);
    }

    w.u32(static_cast<std::uint32_t>(p.operand_is_literal_.size()));
    for (const std::uint8_t b : p.operand_is_literal_) w.u8(b);
    w.u32(static_cast<std::uint32_t>(p.operand_literal_.size()));
    for (const std::int64_t v : p.operand_literal_) w.i64(v);

    w.u32(static_cast<std::uint32_t>(p.macro_steps_.size()));
    for (const dfg::FusedStep& s : p.macro_steps_) {
      w.u8(static_cast<std::uint8_t>(s.kind));
      w.u8(static_cast<std::uint8_t>(s.bop));
      w.u8(static_cast<std::uint8_t>(s.uop));
      w.u16(s.value_port);
      w.i64(s.literal);
    }

    for (const std::string& l : p.labels_) w.str(l);  // count == ops
  }

  /// Returns an empty string on success, a kMalformed detail otherwise.
  /// Structural validation covers the table ranges and the frame layout
  /// the engine indexes without checking — the content hash already
  /// rules out corruption, so this only guards against blobs produced
  /// by a buggy or adversarial writer.
  static std::string decode(Reader& r, ExecProgram& p) {
    const std::uint32_t num_ops = r.u32();
    if (num_ops > (1u << 24)) return "implausible op count";
    p.ops_.resize(num_ops);
    for (ExecOp& op : p.ops_) {
      const std::uint8_t kind = r.u8();
      if (kind >= dfg::kNumOpKinds) return "op kind out of range";
      op.kind = static_cast<dfg::OpKind>(kind);
      op.flags = r.u8();
      op.num_inputs = r.u16();
      op.num_outputs = r.u16();
      op.consumed_inputs = r.u16();
      op.first_operand = r.u32();
      op.first_port = r.u32();
      op.frame_base = r.u32();
      op.strict_index = r.u32();
      const std::uint8_t bop = r.u8();
      const std::uint8_t uop = r.u8();
      if (bop > static_cast<std::uint8_t>(lang::BinOp::kOr))
        return "binop out of range";
      if (uop > static_cast<std::uint8_t>(lang::UnOp::kNot))
        return "unop out of range";
      op.bop = static_cast<lang::BinOp>(bop);
      op.uop = static_cast<lang::UnOp>(uop);
      op.mem_base = r.u32();
      op.mem_extent = r.i64();
      op.loop = cfg::LoopId{r.u32()};
      const std::uint8_t head = r.u8();
      if (head >= dfg::kNumOpKinds) return "macro head out of range";
      op.macro_head = static_cast<dfg::OpKind>(head);
      op.num_steps = r.u16();
      op.first_step = r.u32();
    }
    p.start_ = dfg::NodeId{r.u32()};
    p.end_ = dfg::NodeId{r.u32()};
    p.frame_slots_ = r.u64();
    p.num_framed_ = r.u64();

    p.start_values_.resize(r.u32());
    for (std::int64_t& v : p.start_values_) v = r.i64();

    p.fanout_begin_.resize(r.u32());
    for (std::uint32_t& v : p.fanout_begin_) v = r.u32();

    p.fanout_.resize(r.u32());
    for (ExecDest& d : p.fanout_) {
      d.node = dfg::NodeId{r.u32()};
      d.port = r.u16();
    }

    p.operand_is_literal_.resize(r.u32());
    for (std::uint8_t& b : p.operand_is_literal_) b = r.u8();
    p.operand_literal_.resize(r.u32());
    for (std::int64_t& v : p.operand_literal_) v = r.i64();

    p.macro_steps_.resize(r.u32());
    for (dfg::FusedStep& s : p.macro_steps_) {
      const std::uint8_t kind = r.u8();
      if (kind >= dfg::kNumOpKinds) return "fused-step kind out of range";
      s.kind = static_cast<dfg::OpKind>(kind);
      s.bop = static_cast<lang::BinOp>(r.u8());
      s.uop = static_cast<lang::UnOp>(r.u8());
      s.value_port = r.u16();
      s.literal = r.i64();
    }

    p.labels_.resize(num_ops);
    for (std::string& l : p.labels_) l = r.str();

    if (!r.ok) return "payload ended mid-field";
    if (p.operand_literal_.size() != p.operand_is_literal_.size())
      return "operand tables differ in length";
    // Cross-field consistency the engine relies on unconditionally: the
    // fan-out index starts at 0, never decreases and ends at the table's
    // size, so every (op, port) span lies inside the destination table.
    if (!p.fanout_begin_.empty()) {
      if (p.fanout_begin_.front() != 0)
        return "fan-out index does not start at 0";
      if (p.fanout_begin_.back() != p.fanout_.size())
        return "fan-out index does not cover the destination table";
      for (std::size_t i = 1; i < p.fanout_begin_.size(); ++i)
        if (p.fanout_begin_[i] < p.fanout_begin_[i - 1])
          return "fan-out index decreases";
    }
    // The frame layout is the one lowering assigns: framed ops own
    // consecutive slot ranges, and a firing consumes a token for every
    // non-literal port. A frame starts as the blank frame derived from
    // this layout, and a firing clears only its own range's token
    // ports, so every slot a firing reads is one a token or a literal
    // wrote.
    std::uint64_t slots = 0;
    std::uint64_t framed = 0;
    for (const ExecOp& op : p.ops_) {
      if (op.first_port + op.num_outputs + 1 > p.fanout_begin_.size())
        return "op fan-out range out of bounds";
      if (op.first_operand + op.num_inputs > p.operand_is_literal_.size())
        return "op operand range out of bounds";
      if (static_cast<std::size_t>(op.first_step) + op.num_steps >
          p.macro_steps_.size())
        return "op macro-step range out of bounds";
      std::uint16_t tokens = 0;
      for (std::uint16_t in = 0; in < op.num_inputs; ++in)
        if (!p.literal_at(op, in)) ++tokens;
      if (op.consumed_inputs != tokens)
        return "op consumes a different number of tokens than it has "
               "non-literal ports";
      if (!op.framed()) continue;
      if (op.frame_base != slots || op.strict_index != framed)
        return "op frame range out of place";
      slots += op.num_inputs;
      ++framed;
    }
    if (slots != p.frame_slots_ || framed != p.num_framed_)
      return "frame geometry does not match the op table";
    // Lowering gives every operand one frame slot at most, which bounds
    // the blank frame derived below by the blob's own size.
    if (slots > p.operand_is_literal_.size())
      return "frame larger than the operand table";
    for (const ExecDest& d : p.fanout_) {
      if (d.node.index() >= num_ops) return "destination node out of range";
      const ExecOp& to = p.ops_[d.node.index()];
      if (d.port >= to.num_inputs) return "destination port out of range";
      if (!to.framed() && !(to.flags & kExecNonStrict))
        return "strict destination without a frame range";
    }
    if (p.start_.index() >= num_ops || p.end_.index() >= num_ops)
      return "start/end node out of range";
    p.derive_frames();
    return {};
  }
};

const char* to_string(BlobError e) {
  switch (e) {
    case BlobError::kNone: return "none";
    case BlobError::kUnreadable: return "unreadable";
    case BlobError::kBadMagic: return "bad-magic";
    case BlobError::kBadVersion: return "version-mismatch";
    case BlobError::kTruncated: return "truncated";
    case BlobError::kHashMismatch: return "hash-mismatch";
    case BlobError::kMalformed: return "malformed";
  }
  return "unknown";
}

namespace {

/// Checks the image where the engine touches memory without checking:
/// every region and every memory op's cell range lies inside
/// [0, memory_cells), and an op carries the memory flag exactly when
/// its kind is a memory op. Returns a kMalformed detail, or empty.
std::string check_memory(const ProgramImage& image) {
  const std::uint64_t cells = image.memory_cells;
  const auto inside = [cells](std::uint64_t base, std::uint64_t extent) {
    return extent <= cells && base <= cells - extent;
  };
  for (const lang::CellRegion& r : image.istructures)
    if (!inside(r.base, r.extent)) return "I-structure region outside memory";
  for (const lang::CellRegion& r : image.shared)
    if (!inside(r.base, r.extent)) return "shared region outside memory";
  for (std::uint32_t i = 0; i < image.exec.num_ops(); ++i) {
    const ExecOp& op = image.exec.op(i);
    const bool mem = (op.flags & kExecMem) != 0;
    if (mem != dfg::is_memory_op(op.kind))
      return "memory flag does not match the op kind";
    if (!mem) continue;
    if (op.mem_extent < 1) return "memory op extent below 1";
    if (!inside(op.mem_base, static_cast<std::uint64_t>(op.mem_extent)))
      return "memory op cell range outside memory";
  }
  return {};
}

/// The payload: the ExecProgram, then the memory image. Run once with a
/// Sizer and once with a Writer.
template <typename W>
void encode_image(const ProgramImage& image, W& w) {
  BlobCodec::encode(image.exec, w);
  w.u64(image.memory_cells);
  w.u32(static_cast<std::uint32_t>(image.istructures.size()));
  for (const lang::CellRegion& r : image.istructures) {
    w.u32(r.base);
    w.u32(r.extent);
  }
  w.u32(static_cast<std::uint32_t>(image.shared.size()));
  for (const lang::CellRegion& r : image.shared) {
    w.u32(r.base);
    w.u32(r.extent);
  }
  w.u32(static_cast<std::uint32_t>(image.names.size()));
  for (const NamedCell& n : image.names) {
    w.str(n.name);
    w.u32(n.base);
    w.i64(n.extent);
  }
}

}  // namespace

std::vector<std::uint8_t> serialize(const ProgramImage& image) {
  Sizer sizer;
  encode_image(image, sizer);
  // One allocation: the payload is written in place behind the header,
  // then hashed there.
  std::vector<std::uint8_t> blob(kBlobHeaderSize + sizer.bytes);
  std::uint8_t* const payload = blob.data() + kBlobHeaderSize;
  Writer body(payload);
  encode_image(image, body);
  CTDF_ASSERT(body.position() == payload + sizer.bytes);

  std::memcpy(blob.data(), kBlobMagic, kBlobMagicSize);
  Writer header(blob.data() + kBlobMagicSize);
  header.u32(kBlobVersion);
  header.u32(0);  // reserved
  header.u64(sizer.bytes);
  header.u64(support::content_hash64(payload, sizer.bytes));
  return blob;
}

std::uint64_t blob_content_hash(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kBlobHeaderSize) return 0;
  Reader r(bytes.subspan(24, 8));
  return r.u64();
}

BlobReadResult deserialize(std::span<const std::uint8_t> bytes) {
  BlobReadResult out;
  out.blob_bytes = bytes.size();
  if (bytes.size() < kBlobHeaderSize) {
    out.error = BlobError::kTruncated;
    out.message = "blob shorter than the " +
                  std::to_string(kBlobHeaderSize) + "-byte header (" +
                  std::to_string(bytes.size()) + " bytes)";
    return out;
  }
  if (std::memcmp(bytes.data(), kBlobMagic, kBlobMagicSize) != 0) {
    out.error = BlobError::kBadMagic;
    out.message = "not a ctdf program blob (bad magic)";
    return out;
  }
  Reader header(bytes.subspan(kBlobMagicSize));
  const std::uint32_t version = header.u32();
  header.u32();  // reserved
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t declared_hash = header.u64();
  if (version != kBlobVersion) {
    out.error = BlobError::kBadVersion;
    out.message = "blob format version " + std::to_string(version) +
                  ", this build reads version " +
                  std::to_string(kBlobVersion);
    return out;
  }
  if (bytes.size() - kBlobHeaderSize < payload_size) {
    out.error = BlobError::kTruncated;
    out.message = "payload truncated: header declares " +
                  std::to_string(payload_size) + " bytes, " +
                  std::to_string(bytes.size() - kBlobHeaderSize) +
                  " present";
    return out;
  }
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kBlobHeaderSize, payload_size);
  const std::uint64_t actual_hash =
      support::content_hash64(payload.data(), payload.size());
  if (actual_hash != declared_hash) {
    out.error = BlobError::kHashMismatch;
    std::ostringstream os;
    os << "content hash mismatch: header " << std::hex << declared_hash
       << ", payload " << actual_hash;
    out.message = os.str();
    return out;
  }
  out.content_hash = actual_hash;

  Reader r(payload);
  std::string complaint = BlobCodec::decode(r, out.image.exec);
  if (complaint.empty()) {
    out.image.memory_cells = r.u64();
    out.image.istructures.resize(r.u32());
    for (lang::CellRegion& reg : out.image.istructures) {
      reg.base = r.u32();
      reg.extent = r.u32();
    }
    out.image.shared.resize(r.u32());
    for (lang::CellRegion& reg : out.image.shared) {
      reg.base = r.u32();
      reg.extent = r.u32();
    }
    out.image.names.resize(r.u32());
    for (NamedCell& n : out.image.names) {
      n.name = r.str();
      n.base = r.u32();
      n.extent = r.i64();
    }
    if (!r.ok)
      complaint = "payload ended mid-field";
    else if (!r.exhausted())
      complaint = "trailing bytes after the image";
    else
      complaint = check_memory(out.image);
  }
  if (!complaint.empty()) {
    out.error = BlobError::kMalformed;
    out.message = "malformed payload: " + complaint;
    out.image = {};
  }
  return out;
}

bool write_blob_file(const std::string& path,
                     std::span<const std::uint8_t> bytes) {
  // Write-then-rename so a reader never observes a torn blob: writing
  // in place would let a concurrent read_blob_file (the disk cache
  // tier, another server process) see a truncated prefix that fails
  // the hash check — or worse, a stale header over new payload. The
  // tmp name carries pid + a process-wide counter so concurrent
  // writers of the same path never collide; rename() is atomic within
  // a filesystem, so readers see the old bytes or the new, never a
  // mix.
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(current_pid()) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (std::fclose(f) != 0 || written != bytes.size()) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

BlobReadResult read_blob_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    BlobReadResult out;
    out.error = BlobError::kUnreadable;
    out.message = "cannot open " + path;
    return out;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(f);
  return deserialize(bytes);
}

}  // namespace ctdf::machine
