#include "obs/json_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace octbal::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::number_or(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->num : def;
}

std::uint64_t JsonValue::uint_or(std::string_view key,
                                 std::uint64_t def) const {
  const JsonValue* v = find(key);
  return v && v->is_number() ? v->as_uint() : def;
}

std::string JsonValue::string_or(std::string_view key,
                                 const std::string& def) const {
  const JsonValue* v = find(key);
  return v && v->is_string() ? v->str : def;
}

bool JsonValue::bool_or(std::string_view key, bool def) const {
  const JsonValue* v = find(key);
  return v && v->is_bool() ? v->boolean : def;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind != Kind::kNumber || num < 0 || num != std::floor(num)) return 0;
  return static_cast<std::uint64_t>(num);
}

bool JsonValue::is_integer() const {
  return kind == Kind::kNumber && std::isfinite(num) &&
         num == std::floor(num) && std::abs(num) < 9.007199254740992e15;
}

namespace {

class Parser {
 public:
  Parser(std::string_view s, std::string* error) : s_(s), error_(error) {}

  bool parse(JsonValue& out) {
    skip();
    if (!value(out)) return false;
    skip();
    if (i_ != s_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(std::string_view what) {
    if (error_ && error_->empty()) {
      *error_ = std::string(what) + " at byte " + std::to_string(i_);
    }
    return false;
  }

  void skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t'))
      ++i_;
  }

  bool lit(const char* t, JsonValue& v, JsonValue::Kind kind, bool b) {
    for (const char* p = t; *p; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return fail("bad literal");
    }
    v.kind = kind;
    v.boolean = b;
    return true;
  }

  bool string(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return fail("expected string");
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return fail("dangling escape");
        switch (s_[i_]) {
          case 'u':
            if (i_ + 4 >= s_.size()) return fail("short \\u escape");
            for (int h = 1; h <= 4; ++h) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[i_ + h]))) {
                return fail("bad \\u escape");
              }
            }
            i_ += 4;
            out += '?';
            break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          default: return fail("bad escape");
        }
      } else {
        out += s_[i_];
      }
      ++i_;
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;  // closing quote
    return true;
  }

  /// \p depth counts the arrays and objects around \p v.
  bool value(JsonValue& v, int depth = 0) {
    if (i_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[i_];
    if ((c == '{' || c == '[') && depth == kJsonMaxDepth) {
      return fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      while (true) {
        std::string key;
        skip();
        if (!string(key)) return false;
        skip();
        if (i_ >= s_.size() || s_[i_] != ':') return fail("expected ':'");
        ++i_;
        skip();
        if (!value(v.obj[key], depth + 1)) return false;
        skip();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        break;
      }
      if (i_ >= s_.size() || s_[i_] != '}') return fail("expected '}'");
      return ++i_, true;
    }
    if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      ++i_;
      skip();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      while (true) {
        v.arr.emplace_back();
        skip();
        if (!value(v.arr.back(), depth + 1)) return false;
        skip();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        break;
      }
      if (i_ >= s_.size() || s_[i_] != ']') return fail("expected ']'");
      return ++i_, true;
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      return string(v.str);
    }
    if (c == 't') return lit("true", v, JsonValue::Kind::kBool, true);
    if (c == 'f') return lit("false", v, JsonValue::Kind::kBool, false);
    if (c == 'n') return lit("null", v, JsonValue::Kind::kNull, false);
    std::size_t end = i_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E'))
      ++end;
    if (end == i_) return fail("unexpected character");
    const std::string tok(s_.substr(i_, end - i_));
    // JSON numbers start with '-' or a digit; strtod's wider grammar
    // ("+1", ".5", "1e", "--2") must come back as structured errors, not
    // silent zeros or infinities.
    if (tok[0] != '-' && !std::isdigit(static_cast<unsigned char>(tok[0]))) {
      return fail("bad number");
    }
    errno = 0;
    char* endp = nullptr;
    const double d = std::strtod(tok.c_str(), &endp);
    if (endp != tok.c_str() + tok.size()) return fail("bad number");
    if (errno == ERANGE && (d == HUGE_VAL || d == -HUGE_VAL)) {
      return fail("number out of range");
    }
    v.kind = JsonValue::Kind::kNumber;
    v.num = d;
    i_ = end;
    return true;
  }

  std::string_view s_;
  std::string* error_;
  std::size_t i_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  if (error) error->clear();
  // Callers routinely reuse one JsonValue across parse attempts; start
  // from a blank value so a failed (or second) parse can never leak the
  // previous document's strings or children into the result.
  out = JsonValue{};
  return Parser(text, error).parse(out);
}

}  // namespace octbal::obs
