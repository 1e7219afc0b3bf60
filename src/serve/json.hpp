// Minimal JSON for the serve protocol (src/serve/serve.hpp).
//
// The serve front-end needs exactly one JSON dialect: parse a request
// object off one NDJSON line, walk a few fields, and write a response
// line. A dependency-free recursive-descent parser covers that; it is
// not a general-purpose JSON library (no streaming, no number
// round-trip guarantees beyond double precision, objects keep
// insertion order and allow duplicate keys — find() returns the first).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctdf::serve {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// First member with this key, or nullptr.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing content not). On failure returns nullopt and, when `error`
/// is non-null, a one-line description with the byte offset.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error = nullptr);

/// Renders a scalar (null, bool, number or string): the response
/// writer echoes request ids with it. Callers reject arrays and objects
/// first.
[[nodiscard]] std::string json_render(const JsonValue& v);

}  // namespace ctdf::serve
