#include "report/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace parsgd::report {

namespace {

const char* kind_name(Json::Kind k) {
  switch (k) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kNumber: return "number";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

}  // namespace

bool Json::as_bool() const {
  PARSGD_CHECK(kind_ == Kind::kBool,
               "json: expected bool, got " << kind_name(kind_));
  return bool_;
}

double Json::as_number() const {
  PARSGD_CHECK(kind_ == Kind::kNumber,
               "json: expected number, got " << kind_name(kind_));
  return num_;
}

const std::string& Json::as_string() const {
  PARSGD_CHECK(kind_ == Kind::kString,
               "json: expected string, got " << kind_name(kind_));
  return str_;
}

const JsonArray& Json::as_array() const {
  PARSGD_CHECK(kind_ == Kind::kArray,
               "json: expected array, got " << kind_name(kind_));
  return arr_;
}

const JsonMembers& Json::as_object() const {
  PARSGD_CHECK(kind_ == Kind::kObject,
               "json: expected object, got " << kind_name(kind_));
  return obj_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  PARSGD_CHECK(v != nullptr, "json: missing key '" << key << "'");
  return *v;
}

void Json::set(std::string key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  PARSGD_CHECK(kind_ == Kind::kObject,
               "json: set() on " << kind_name(kind_));
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  PARSGD_CHECK(kind_ == Kind::kArray,
               "json: push() on " << kind_name(kind_));
  arr_.push_back(std::move(value));
}

std::string json_number(double v) {
  // max_digits10 = 17 round-trips every finite double through strtod.
  // Integral values within 2^53 print as integers for readability (the
  // %.17g form of e.g. 56.0 is just "56" anyway, so this is a no-op in
  // practice, but being explicit documents the invariant).
  PARSGD_CHECK(std::isfinite(v), "json: non-finite number " << v);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void dump_to(const Json& v, std::string& out, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case Json::Kind::kNull: out += "null"; break;
    case Json::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Kind::kNumber: out += json_number(v.as_number()); break;
    case Json::Kind::kString:
      out += '"';
      out += json_escape(v.as_string());
      out += '"';
      break;
    case Json::Kind::kArray: {
      const JsonArray& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        dump_to(a[i], out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Json::Kind::kObject: {
      const JsonMembers& m = v.as_object();
      if (m.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        out += '"';
        out += json_escape(m[i].first);
        out += "\": ";
        dump_to(m[i].second, out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

/// Recursive-descent parser over the whole input string.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    PARSGD_CHECK(pos_ == s_.size(),
                 "json: trailing garbage at byte " << pos_ << ": '"
                     << context() << "'");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    PARSGD_CHECK(false, "json: " << what << " at byte " << pos_
                                 << " (after key '" << last_key_ << "'): '"
                                 << context() << "'");
    std::abort();  // unreachable; PARSGD_CHECK(false) throws
  }

  std::string context() const {
    return s_.substr(pos_, std::min<std::size_t>(16, s_.size() - pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonMembers members;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      last_key_ = key;
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(members));
      }
      fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray items;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // Report files only escape control characters (<0x20, via
          // json_escape); encode the general case as UTF-8 anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number");
    }
    // The writer refuses non-finite numbers; so does the reader (1e999).
    if (!std::isfinite(v)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string last_key_;  ///< most recent object key, for error messages
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

Json parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace parsgd::report
