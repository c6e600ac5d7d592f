// Minimal JSON value + recursive-descent parser for the analysis tools.
//
// Scope: exactly what rvma_metrics needs to read the documents this repo
// writes (metrics files, PDES profiles) — objects, arrays, strings
// with basic escapes, integer/double numbers, booleans, null. Not a
// general-purpose library; no external dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rvma::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;        ///< always set for kNumber
  std::int64_t integer = 0;   ///< exact value when is_integer
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (the writer emits sorted keys anyway).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  std::int64_t as_i64(std::int64_t fallback = 0) const {
    if (kind != Kind::kNumber) return fallback;
    return is_integer ? integer : static_cast<std::int64_t>(number);
  }
  std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    return static_cast<std::uint64_t>(as_i64(static_cast<std::int64_t>(fallback)));
  }
  double as_double(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

/// Parse `text` into `*out`. On failure returns false and, if `error` is
/// non-null, stores a short message with the byte offset.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

/// Append `s` to `out` as a quoted JSON string with minimal escaping.
void json_append_escaped(std::string* out, std::string_view s);

}  // namespace rvma::obs
