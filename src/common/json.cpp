#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace carpool {
namespace {

/// Maximum container nesting. Parsing is recursive, so unbounded depth
/// (e.g. a megabyte of '[') would overflow the stack — a crash, which
/// the never-throwing parser contract forbids. 256 is far beyond any
/// scenario/bundle document and small enough for default stacks.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult parse() {
    JsonParseResult out;
    JsonValue v;
    if (!parse_value(v)) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      out.error = error_;
      return out;
    }
    out.value = std::move(v);
    return out;
  }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      advance();
    }
  }

  bool fail(std::string message) {
    // Keep the first (deepest) error; callers unwind without overwriting.
    if (error_.message.empty()) {
      error_.message = std::move(message);
      error_.line = line_;
      error_.column = col_;
    }
    return false;
  }

  bool expect(char c) {
    if (at_end() || peek() != c) {
      return fail(std::string("expected '") + c + "'");
    }
    advance();
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        return parse_literal("true", JsonValue(true), out);
      case 'f':
        return parse_literal("false", JsonValue(false), out);
      case 'n':
        return parse_literal("null", JsonValue(), out);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, JsonValue value,
                     JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    for (std::size_t i = 0; i < word.size(); ++i) advance();
    out = std::move(value);
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') advance();
    while (!at_end() &&
           (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
            peek() == '.' || peek() == 'e' || peek() == 'E' ||
            peek() == '+' || peek() == '-')) {
      advance();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        token.empty()) {
      return fail("invalid number");
    }
    out = JsonValue(value);
    return true;
  }

  bool parse_hex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail("truncated \\u escape");
      const char c = advance();
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape digit");
      }
    }
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = advance();
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail("truncated escape sequence");
      const char e = advance();
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
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape sequence");
      }
    }
  }

  bool parse_array(JsonValue& out) {
    if (!expect('[')) return false;
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    ++depth_;
    JsonArray items;
    skip_ws();
    if (!at_end() && peek() == ']') {
      advance();
      --depth_;
      out = JsonValue(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == ']') {
        advance();
        --depth_;
        out = JsonValue(std::move(items));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out) {
    if (!expect('{')) return false;
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    ++depth_;
    JsonObject members;
    skip_ws();
    if (!at_end() && peek() == '}') {
      advance();
      --depth_;
      out = JsonValue(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (at_end() || peek() != '"') return fail("expected object key");
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      if (peek() == '}') {
        advance();
        --depth_;
        out = JsonValue(std::move(members));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
  std::size_t depth_ = 0;  ///< open containers; bounded by kMaxDepth
  JsonError error_;
};

void dump_value(const JsonValue& v, std::string& out, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += json_number(v.as_number());
      return;
    case JsonValue::Kind::kString:
      out += json_quote(v.as_string());
      return;
    case JsonValue::Kind::kArray: {
      const JsonArray& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < a.size(); ++i) {
        out += pad_in;
        dump_value(a[i], out, indent + 1);
        if (i + 1 < a.size()) out += ",";
        out += "\n";
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Kind::kObject: {
      const JsonObject& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < o.size(); ++i) {
        out += pad_in;
        out += json_quote(o[i].first);
        out += ": ";
        dump_value(o[i].second, out, indent + 1);
        if (i + 1 < o.size()) out += ",";
        out += "\n";
      }
      out += pad + "}";
      return;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonError::to_string() const {
  return "line " + std::to_string(line) + ", column " +
         std::to_string(column) + ": " + message;
}

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).parse();
}

std::string json_dump(const JsonValue& value) {
  std::string out;
  dump_value(value, out, 0);
  out += "\n";
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string json_hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

bool json_from_hex_u64(const JsonValue* v, std::uint64_t& out) noexcept {
  if (v == nullptr || !v->is_string()) return false;
  const std::string& s = v->as_string();
  if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) {
    return false;
  }
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data() + 2, end, out, 16);
  return ec == std::errc{} && ptr == end;
}

bool json_to_u64(const JsonValue* v, std::uint64_t& out) noexcept {
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->as_number();
  // 2^53: the largest range where every integer has an exact double
  // representation. `!(d >= 0.0)` also rejects NaN.
  constexpr double kMaxExact = 9007199254740992.0;
  if (!(d >= 0.0) || d > kMaxExact) return false;
  if (d != std::floor(d)) return false;
  out = static_cast<std::uint64_t>(d);
  return true;
}

namespace {

/// Member `key` of `obj`, null when absent; a missing required member
/// is a failure.
const JsonValue* find_field(JsonReader& in, const JsonValue& obj,
                            const std::string& path, std::string_view key,
                            bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr && required) {
    in.fail(path + std::string(key), "required field missing");
  }
  return v;
}

}  // namespace

bool read_number(JsonReader& in, const JsonValue& obj,
                 const std::string& path, std::string_view key, double& out,
                 bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr) return !required;
  if (!v->is_number()) {
    return in.fail(path + std::string(key), "expected a number");
  }
  if (!std::isfinite(v->as_number())) {
    return in.fail(path + std::string(key), "must be finite");
  }
  out = v->as_number();
  return true;
}

bool read_uint(JsonReader& in, const JsonValue& obj, const std::string& path,
               std::string_view key, std::uint64_t& out, bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr) return !required;
  if (!json_to_u64(v, out)) {
    return in.fail(path + std::string(key),
                   "expected a non-negative integer (<= 2^53)");
  }
  return true;
}

bool read_hex_u64(JsonReader& in, const JsonValue& obj,
                  const std::string& path, std::string_view key,
                  std::uint64_t& out, bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr) return !required;
  if (!json_from_hex_u64(v, out)) {
    return in.fail(path + std::string(key),
                   "expected a 0x-prefixed hex string");
  }
  return true;
}

bool read_bool(JsonReader& in, const JsonValue& obj, const std::string& path,
               std::string_view key, bool& out, bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr) return !required;
  if (!v->is_bool()) {
    return in.fail(path + std::string(key), "expected a boolean");
  }
  out = v->as_bool();
  return true;
}

bool read_string(JsonReader& in, const JsonValue& obj,
                 const std::string& path, std::string_view key,
                 std::string& out, bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr) return !required;
  if (!v->is_string()) {
    return in.fail(path + std::string(key), "expected a string");
  }
  out = v->as_string();
  return true;
}

const JsonValue* read_member(JsonReader& in, const JsonValue& obj,
                             const std::string& path, std::string_view key,
                             JsonValue::Kind kind, bool required) {
  const JsonValue* v = find_field(in, obj, path, key, required);
  if (v == nullptr || v->kind() == kind) return v;
  static constexpr const char* kKindNames[] = {
      "null", "a boolean", "a number", "a string", "an array", "an object"};
  in.fail(path + std::string(key),
          std::string("expected ") + kKindNames[static_cast<int>(kind)]);
  return nullptr;
}

}  // namespace carpool
