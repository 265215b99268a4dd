#pragma once
/// \file json_parse.hpp
/// \brief A small recursive-descent JSON parser producing a DOM, for the
/// analysis side of the observability stack (octbal_inspect, report
/// diffing, schema validation in tests).
///
/// Deliberately minimal, mirroring obs/json.hpp on the write side: no
/// external dependency, strings handled per RFC 8259 (well-formed \uXXXX
/// escapes degrade to '?', which none of our documents contain), numbers
/// parsed as doubles with an exact-integer view for counter fields.
/// Malformed input — truncated documents, invalid escapes, numbers that
/// overflow a double — comes back as a structured (message, byte offset)
/// error through json_parse's out-param, never an assert; so does nesting
/// past kJsonMaxDepth.  Grew out of the MiniJsonParser that used to live
/// in tests/test_obs.cpp.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace octbal::obs {

/// Deepest accepted nesting of arrays and objects.  The parser recurses
/// once per level, so a deeper document is an error ("nesting deeper than
/// 512 at byte N"), not a stack overflow.  The repo's reports nest 8 deep.
inline constexpr int kJsonMaxDepth = 512;

/// One JSON value.  Object members are kept in a sorted map: every
/// consumer here addresses members by name, and sorted iteration makes
/// analysis output deterministic.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray,
                                   kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup; nullptr when this is not an object or the key is
  /// absent — so lookups chain without intermediate checks.
  const JsonValue* find(std::string_view key) const;

  /// Typed member access with defaults (missing member or kind mismatch
  /// falls back to \p def).
  double number_or(std::string_view key, double def) const;
  std::uint64_t uint_or(std::string_view key, std::uint64_t def) const;
  std::string string_or(std::string_view key, const std::string& def) const;
  bool bool_or(std::string_view key, bool def) const;

  /// This number viewed as an exact unsigned counter (0 when negative,
  /// fractional, or not a number).
  std::uint64_t as_uint() const;

  /// True when the number is integral (counter-like) — the diff layer
  /// compares such fields exactly and everything else as timing.
  bool is_integer() const;
};

/// Parse \p text into \p out.  Returns false on malformed input and, when
/// \p error is non-null, describes the first problem with its byte offset.
/// The whole input must be one JSON value (trailing whitespace allowed).
bool json_parse(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

}  // namespace octbal::obs
