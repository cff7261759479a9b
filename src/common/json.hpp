#pragma once

// carpool — the one JSON reader and writer: scenarios, repro bundles,
// checkpoints and fuzz state (docs/SOAK.md), metrics exports, Chrome
// traces and bench_diff's reader of those exports (docs/OBSERVABILITY.md).
//
// Strict subset of RFC 8259 sufficient for our schemas: objects, arrays,
// strings (with \uXXXX escapes decoded to UTF-8), numbers, booleans,
// null. Parsing never throws: malformed input yields a structured
// JsonError carrying the 1-based line/column and a message, so a bad
// scenario file becomes a diagnostic rather than a crash — one of the
// repro-bundle robustness requirements the chaos tests pin down.
//
// Writers with their own line layout (registry export, Chrome trace)
// use json_quote and json_number: one escape table, one number rule.
// Schema parsers read fields through JsonReader and the read_*
// functions: one rule for required fields, types and error paths.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace carpool {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// Ordered map: scenario files diff cleanly when keys keep their order.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// A parsed JSON document node (immutable after parse).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::kObject), object_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept {
    return kind_ == Kind::kNull;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind_ == Kind::kBool;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const JsonArray& as_array() const noexcept { return array_; }
  [[nodiscard]] const JsonObject& as_object() const noexcept {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Where and why parsing failed. `line`/`column` are 1-based positions in
/// the input text.
struct JsonError {
  std::string message;
  std::size_t line = 0;
  std::size_t column = 0;

  [[nodiscard]] std::string to_string() const;
};

struct JsonParseResult {
  std::optional<JsonValue> value;  ///< engaged iff parsing succeeded
  JsonError error;                 ///< meaningful iff !value

  [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
};

/// Parse a complete JSON document (trailing garbage is an error).
[[nodiscard]] JsonParseResult json_parse(std::string_view text);

/// Serialize with 2-space indentation and `\n` line ends, one array
/// element or object member per line. Numbers print as json_number.
[[nodiscard]] std::string json_dump(const JsonValue& value);

/// `s` as a JSON string literal, quotes included: quote and backslash
/// escaped, \b \f \n \r \t as short escapes, other bytes below 0x20 as
/// \u00XX, everything else (UTF-8 included) as is.
[[nodiscard]] std::string json_quote(std::string_view s);

/// `v` as JSON number text. Integral values below 1e15 print without a
/// decimal point so frame indices and seeds round-trip textually; other
/// finite values print as %.17g, which round-trips every double. NaN and
/// the infinities have no JSON literal and print as `null`.
[[nodiscard]] std::string json_number(double v);

/// 64-bit digests and seeds do not fit a double-backed JSON number, so
/// the state files store them as fixed-width hex strings: "0x%016x".
[[nodiscard]] std::string json_hex_u64(std::uint64_t v);

/// Read json_hex_u64's form back: true iff `v` is a string holding "0x"
/// and hex digits that fit 64 bits, and nothing else.
[[nodiscard]] bool json_from_hex_u64(const JsonValue* v,
                                     std::uint64_t& out) noexcept;

/// Validated number -> u64 for the double-backed state-file schemas:
/// true iff `v` is a finite, integral JSON number within [0, 2^53] (the
/// precision bound the format already assumes). Guards the static_cast
/// in never-throwing parsers — converting NaN, an infinity, or an
/// out-of-range double to an integer is undefined behaviour, and a
/// corrupted or hand-edited file must become a diagnostic, not UB.
[[nodiscard]] bool json_to_u64(const JsonValue* v,
                               std::uint64_t& out) noexcept;

// ------------------------------------------------------- field reading

/// Where a well-formed document breaks its schema: a dotted JSON path
/// ("interference[2].stop") and what is wrong there.
struct JsonPathError {
  std::string path;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return path.empty() ? message : path + ": " + message;
  }
};

/// The one field reader of the never-throwing schema parsers (scenarios,
/// repro bundles, checkpoints, fuzz state, registry exports). Each read_*
/// looks up `key` in `obj` and on success stores it in `out` and returns
/// true; an absent optional field leaves `out` as it was. A missing
/// required field or a wrong type records the first failure, at path
/// `path + key`, and returns false.
struct JsonReader {
  JsonPathError error;
  bool failed = false;

  bool fail(std::string path, std::string message) {
    if (!failed) {
      error = {std::move(path), std::move(message)};
      failed = true;
    }
    return false;
  }
};

/// A finite number.
bool read_number(JsonReader& in, const JsonValue& obj,
                 const std::string& path, std::string_view key, double& out,
                 bool required = false);
/// An integer in [0, 2^53] (json_to_u64).
bool read_uint(JsonReader& in, const JsonValue& obj, const std::string& path,
               std::string_view key, std::uint64_t& out,
               bool required = false);
/// A json_hex_u64 string.
bool read_hex_u64(JsonReader& in, const JsonValue& obj,
                  const std::string& path, std::string_view key,
                  std::uint64_t& out, bool required = false);
bool read_bool(JsonReader& in, const JsonValue& obj, const std::string& path,
               std::string_view key, bool& out, bool required = false);
bool read_string(JsonReader& in, const JsonValue& obj,
                 const std::string& path, std::string_view key,
                 std::string& out, bool required = false);
/// The member itself when it is of `kind`; null when it is absent or
/// the read failed.
const JsonValue* read_member(JsonReader& in, const JsonValue& obj,
                             const std::string& path, std::string_view key,
                             JsonValue::Kind kind, bool required = false);

// ------------------------------------------------- building convenience

/// Append a member to an object under construction.
inline void json_set(JsonObject& obj, std::string key, JsonValue v) {
  obj.emplace_back(std::move(key), std::move(v));
}

}  // namespace carpool
