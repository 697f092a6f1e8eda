// Minimal JSON document model + recursive-descent parser for the run-report
// subsystem (DESIGN.md §13), hand-rolled with no external dependency. It
// round-trips: parse(dump(v)) == v, and numbers are printed with
// max_digits10 precision so every finite double survives bit-exactly.
//
// Scope: exactly what report files need. Objects preserve insertion order
// (dump output is deterministic), strings are UTF-8 passed through opaque,
// numbers are doubles. No comments, no trailing commas — RFC 8259 only.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace parsgd::report {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered object: dump emits members in the order they were set.
using JsonMembers = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Json() = default;                       ///< null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::size_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(JsonArray a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Json(JsonMembers m) : kind_(Kind::kObject), obj_(std::move(m)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw CheckError on kind mismatch (malformed report
  /// files fail loudly with the offending path, never return garbage).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonMembers& as_object() const;

  /// Object member by key; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// Object member by key; throws CheckError naming the key when absent.
  const Json& at(const std::string& key) const;

  /// Appends/overwrites an object member (creates the object on a null).
  void set(std::string key, Json value);
  /// Appends an array element (creates the array on a null).
  void push(Json value);

  /// Serializes the document. `indent` > 0 pretty-prints with that many
  /// spaces per level; 0 emits one line. Deterministic for a given value.
  std::string dump(int indent = 2) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  JsonArray arr_;
  JsonMembers obj_;
};

/// Parses one JSON document (rejects trailing garbage). Throws CheckError
/// with byte offset and context on malformed input.
Json parse_json(const std::string& text);

/// Escapes a string for embedding in a JSON document (quotes, backslashes
/// and control characters; everything else passes through as UTF-8).
std::string json_escape(const std::string& s);

/// Formats a double so it parses back to the identical bit pattern
/// (%.17g; "inf"/"nan" are not valid JSON and are clamped to null by
/// callers before writing). Exposed for the report writer's tests.
std::string json_number(double v);

}  // namespace parsgd::report
