/// \file json.h
/// \brief A minimal JSON value type, parser, and writer.
///
/// The serve daemon speaks newline-delimited JSON (one request or response
/// object per line), and the observability snapshots already *emit* JSON;
/// this adds the read side without an external dependency. The dialect is
/// standard RFC 8259 minus two deliberate simplifications: numbers are
/// always doubles (the protocol's node ids and counts fit a double's 53-bit
/// integer range comfortably), and \uXXXX escapes outside ASCII are passed
/// through as their raw escape text rather than decoded to UTF-8 (no
/// protocol field carries non-ASCII content).
///
/// The writer is two append primitives, AppendJsonString and
/// AppendJsonNumber, which Dump() and the serve daemon's streamed response
/// serializers share. Numbers are formatted with `<charconv>`:
/// integer-valued doubles up to 2^53 via integer std::to_chars, everything
/// else as the shortest `%.{p}g` form that parses back to the same double
/// (found from std::to_chars's shortest digit count, checked with
/// std::from_chars).

#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace infoflow {

/// \brief One JSON value: null, bool, number, string, array, or object.
///
/// Objects keep their members in a std::map, so Dump() output is
/// key-sorted and deterministic — handy for golden tests and diffable logs.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  /// Constructs null.
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}  // NOLINT
  JsonValue(int value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(std::string value)  // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(const char* value)  // NOLINT
      : kind_(Kind::kString), string_(value) {}
  JsonValue(Array value)  // NOLINT
      : kind_(Kind::kArray), array_(std::move(value)) {}
  JsonValue(Object value)  // NOLINT
      : kind_(Kind::kObject), object_(std::move(value)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; aborting on kind mismatch (programming error).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  /// Mutable object/array access for builder-style construction.
  Array& MutableArray();
  Object& MutableObject();

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// \brief Serializes compactly (no whitespace), with object keys in map
  /// order and numbers as AppendJsonNumber writes them: integers up to 2^53
  /// in magnitude without a fractional part, everything else as `%.{p}g`
  /// with the smallest precision p (at most 17) that parses back to the
  /// exact same double, found with std::to_chars / std::from_chars —
  /// snapshots of drift statistics and Beta counts survive Dump → ParseJson
  /// bit-exactly.
  std::string Dump() const;

  /// Dump(), appended to `out`.
  void DumpTo(std::string& out) const;

 private:

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// \brief Appends `s` as a quoted JSON string literal: `"` and `\\` are
/// backslash-escaped, \n \r \t use their short escapes, and other control
/// characters are written as \u00XX.
void AppendJsonString(std::string& out, std::string_view s);

/// \brief Appends `value` as a JSON number in Dump()'s format: null for NaN
/// and infinities, integer digits for integer values up to 2^53 in
/// magnitude ("-0" for negative zero), otherwise the shortest `%.{p}g`
/// text that round-trips.
void AppendJsonNumber(std::string& out, double value);

/// \brief Parses one JSON document. Trailing non-whitespace after the value
/// is an error, as are unterminated strings/containers, so a truncated
/// protocol line fails loudly instead of yielding a partial request.
Result<JsonValue> ParseJson(std::string_view text);

/// \brief The JSON number `value` as an integer of type T, or nullopt
/// unless it is a number holding an integer in [min, T's max]. The range is
/// checked before the conversion, because converting a double outside the
/// target type's range is undefined behaviour.
template <std::integral T>
std::optional<T> JsonToInteger(const JsonValue& value, T min = 0) {
  if (!value.is_number()) return std::nullopt;
  const double number = value.AsNumber();
  // 2^digits is exact as a double and is the first integer past T's max.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(number >= static_cast<double>(min) && number < limit) ||
      number != std::floor(number)) {
    return std::nullopt;
  }
  return static_cast<T>(number);
}

}  // namespace infoflow
