#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace infoflow {

bool JsonValue::AsBool() const {
  IF_CHECK(is_bool()) << "JSON value is not a bool";
  return bool_;
}

double JsonValue::AsNumber() const {
  IF_CHECK(is_number()) << "JSON value is not a number";
  return number_;
}

const std::string& JsonValue::AsString() const {
  IF_CHECK(is_string()) << "JSON value is not a string";
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  IF_CHECK(is_array()) << "JSON value is not an array";
  return array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  IF_CHECK(is_object()) << "JSON value is not an object";
  return object_;
}

JsonValue::Array& JsonValue::MutableArray() {
  IF_CHECK(is_array()) << "JSON value is not an array";
  return array_;
}

JsonValue::Object& JsonValue::MutableObject() {
  IF_CHECK(is_object()) << "JSON value is not an object";
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

void AppendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN literal; null is the conventional stand-in.
    out += "null";
    return;
  }
  // Integers in the exactly-representable range (|v| <= 2^53) print without
  // a fraction — accumulated Beta counts and row totals stay plain integers
  // however large they grow.
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  char buf[32];
  char* const buf_end = buf + sizeof(buf);
  if (value == std::floor(value) && std::fabs(value) <= kMaxExactInteger) {
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";
      return;
    }
    const auto integer = static_cast<std::int64_t>(value);
    out.append(buf, std::to_chars(buf, buf_end, integer).ptr);
    return;
  }
  // Everything else prints as `%.{p}g` with the smallest precision p that
  // parses back to `value`. Shortest scientific to_chars yields the fewest
  // significant digits P of any round-tripping text, so no p < P can
  // round-trip; the first p >= P that does is the answer (usually P itself,
  // P + 1 when the correctly rounded P-digit text lands on a neighbour).
  // %.17g always round-trips.
  const char* const shortest_end =
      std::to_chars(buf, buf_end, value, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* p = buf; p != shortest_end && *p != 'e'; ++p) {
    precision += (*p >= '0' && *p <= '9') ? 1 : 0;
  }
  for (;; ++precision) {
    char* const text_end =
        std::to_chars(buf, buf_end, value, std::chars_format::general,
                      precision)
            .ptr;
    double back = 0.0;
    std::from_chars(buf, text_end, back);
    if (back == value || precision >= 17) {
      out.append(buf, text_end);
      return;
    }
  }
}

void JsonValue::DumpTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: AppendJsonNumber(out, number_); break;
    case Kind::kString: AppendJsonString(out, string_); break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        array_[i].DumpTo(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        AppendJsonString(out, key);
        out.push_back(':');
        value.DumpTo(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(out);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view with an explicit cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    auto value = ParseValue(0);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return value;
  }

 private:
  /// Containers deeper than this reject — a malicious request line cannot
  /// blow the parser's stack.
  static constexpr int kMaxDepth = 64;

  Status Error(const char* what) const {
    return Status::ParseError("JSON: ", what, " at offset ", pos_);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': return ParseString();
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue();
        return Error("bad literal");
      default: return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(object));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      object.insert_or_assign(key->AsString(),
                              std::move(value).ValueOrDie());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(object));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(array));
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      array.push_back(std::move(value).ValueOrDie());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(array));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return JsonValue(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return Error("bad \\u escape");
              }
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0'
                                  : (std::tolower(h) - 'a' + 10));
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else {
              // Pass non-ASCII escapes through verbatim (see file comment).
              out += text_.substr(pos_ - 2, 6);
            }
            pos_ += 4;
            break;
          }
          default: return Error("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      pos_ = start;
      return Error("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace infoflow
