// One JSON writer for the documents the system renders: the machine
// and cache objects of `--stats-json` and every `ctdf serve` response.
//
// It appends to a caller-owned std::string and formats numbers with
// std::to_chars: no stream, no temporary strings. An object is inline
// (members on one line, separated by ", ") or a block (one member per
// line, indented two spaces per level, the closing brace on its own
// line). Layout::kCompact writes block objects on one line too, with a
// bare "," between members: the NDJSON line serve has always sent.
//
//   std::string out;
//   support::JsonWriter w(out, support::JsonWriter::Layout::kCompact);
//   w.begin_object().member("ok", true).key("stats").null().end_object();
//   // out == R"({"ok": true, "stats": null})"
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/assert.hpp"

namespace ctdf::support {

/// Appends `s` escaped for the inside of a JSON string literal.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += c;
    }
  }
}

/// `s` escaped for embedding in a JSON string literal.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

class JsonWriter {
 public:
  enum class Layout : std::uint8_t { kMultiLine, kCompact };

  /// `depth` is the nesting level of the first value: a multi-line
  /// block at level L indents its members 2(L+1) spaces, its brace 2L.
  JsonWriter(std::string& out, Layout layout, int depth = 0)
      : out_(out), compact_(layout == Layout::kCompact), base_(depth) {}

  JsonWriter& begin_object() { return open('{', false); }
  JsonWriter& begin_block() { return open('{', true); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', false); }
  /// An array with one element per line (multi-line layout).
  JsonWriter& begin_block_array() { return open('[', true); }
  JsonWriter& end_array() { return close(']'); }

  /// Starts an object member: the separator, then `"k": `.
  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    before_value();
    quote(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  /// As std::ostream writes a double by default: %g, six digits.
  JsonWriter& value(double d) {
    return number(d, std::chars_format::general, 6);
  }
  template <std::integral T>
  JsonWriter& value(T v) {
    return number(v);
  }
  JsonWriter& null() { return raw("null"); }
  /// `v` as a quoted 16-digit lowercase hex string (keys, hashes).
  JsonWriter& hex16(std::uint64_t v) {
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = "0123456789abcdef"[v & 0xf];
    return value(std::string_view(buf, 16));
  }
  /// A value rendered elsewhere, copied verbatim.
  JsonWriter& raw(std::string_view json) {
    before_value();
    out_ += json;
    return *this;
  }

  template <typename T>
  JsonWriter& member(std::string_view k, const T& v) {
    return key(k).value(v);
  }

 private:
  static constexpr int kMaxDepth = 8;

  template <typename... Format>
  JsonWriter& number(Format... f) {
    before_value();
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, f...).ptr);
    return *this;
  }

  void quote(std::string_view s) {
    out_ += '"';
    append_json_escaped(out_, s);
    out_ += '"';
  }

  JsonWriter& open(char bracket, bool block) {
    before_value();
    CTDF_ASSERT(depth_ < kMaxDepth);
    out_ += bracket;
    block_[depth_] = block;
    first_[depth_++] = true;
    return *this;
  }

  JsonWriter& close(char bracket) {
    CTDF_ASSERT(depth_ > 0);
    if (block_[--depth_]) newline(depth_);
    out_ += bracket;
    return *this;
  }

  /// The separator before an array element or a key.
  void separate() {
    if (depth_ == 0) return;
    const int top = depth_ - 1;
    if (!first_[top]) out_ += block_[top] ? "," : ", ";
    first_[top] = false;
    if (block_[top]) newline(depth_);
  }

  void before_value() {
    if (!after_key_) separate();
    after_key_ = false;
  }

  void newline(int level) {
    if (compact_) return;
    out_ += '\n';
    out_.append(static_cast<std::size_t>(2 * (base_ + level)), ' ');
  }

  std::string& out_;
  bool compact_;
  int base_;
  int depth_ = 0;  ///< open containers
  bool after_key_ = false;
  bool block_[kMaxDepth] = {};
  bool first_[kMaxDepth] = {};
};

}  // namespace ctdf::support
