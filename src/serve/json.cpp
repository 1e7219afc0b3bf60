#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/assert.hpp"
#include "support/json_writer.hpp"

namespace ctdf::serve {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

/// Hostile inputs must fail cleanly, not smash the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!value(v, 0)) {
      if (error) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error) *error = at("trailing content after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  std::string at(const char* msg) {
    return std::string(msg) + " at byte " + std::to_string(pos_);
  }
  bool fail(const char* msg) {
    if (error_.empty()) error_ = at(msg);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word, std::size_t n) {
    if (text_.size() - pos_ < n || text_.compare(pos_, n, word) != 0)
      return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null", 4);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false", 5);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string_body(out.string);
      case '[':
        return array_body(out, depth);
      case '{':
        return object_body(out, depth);
      default:
        return number_body(out);
    }
  }

  bool number_body(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a JSON value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) {
      pos_ = start;
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = d;
    return true;
  }

  bool string_body(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (!hex4(out)) return false;
          break;
        }
        default:
          return fail("bad escape in string");
      }
    }
    return fail("unterminated string");
  }

  /// \uXXXX → UTF-8 (surrogate pairs unsupported: the protocol's
  /// strings are program text and identifiers; reject rather than
  /// silently mangle).
  bool hex4(std::string& out) {
    if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + i];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= h - '0';
      else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
      else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
      else return fail("bad \\u escape");
    }
    pos_ += 4;
    if (code >= 0xD800 && code <= 0xDFFF)
      return fail("surrogate \\u escapes unsupported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return true;
  }

  bool array_body(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue elem;
      if (!value(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool object_body(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected a string key in object");
      std::string key;
      if (!string_body(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      JsonValue val;
      if (!value(val, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

std::string json_render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      // Integral values print as integers (ids round-trip cleanly).
      const double d = v.number;
      char buf[40];
      if (d == std::floor(d) && std::fabs(d) < 9.0e15)
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
      else
        std::snprintf(buf, sizeof buf, "%.17g", d);
      return buf;
    }
    case JsonValue::Kind::kString: {
      std::string out = "\"";
      support::append_json_escaped(out, v.string);
      out += '"';
      return out;
    }
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      break;
  }
  CTDF_UNREACHABLE("json_render renders scalars only");
}

}  // namespace ctdf::serve
