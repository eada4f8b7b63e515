#pragma once
// Minimal JSON value, writer and parser for the benchmark's result files.
//
// Result files are written by report.hpp and read back by the --summarize
// pass (medians and quartiles across runs, digest agreement across runs),
// so both directions live here and selftest.cpp pins the round trip.
// Numbers are doubles printed with 17 significant digits, which reads back
// bit-exactly. Objects keep insertion order so files diff cleanly.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  Json(int i) : Json(static_cast<double>(i)) {}
  Json(long i) : Json(static_cast<double>(i)) {}
  Json(long long i) : Json(static_cast<double>(i)) {}
  Json(unsigned long i) : Json(static_cast<double>(i)) {}
  Json(unsigned long long i) : Json(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }

  double number() const { return expect(Type::kNumber), num_; }
  bool boolean() const { return expect(Type::kBool), bool_; }
  const std::string& str() const { return expect(Type::kString), str_; }
  const Array& array() const { return expect(Type::kArray), arr_; }
  const Object& items() const { return expect(Type::kObject), obj_; }

  // Object access: set() replaces an existing key in place.
  Json& set(const std::string& key, Json value) {
    expect(Type::kObject);
    for (auto& [k, v] : obj_) {
      if (k == key) return v = std::move(value);
    }
    obj_.emplace_back(key, std::move(value));
    return obj_.back().second;
  }
  const Json* find(const std::string& key) const {
    expect(Type::kObject);
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const Json& at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) throw std::runtime_error("json: missing key " + key);
    return *v;
  }
  void push(Json value) {
    expect(Type::kArray);
    arr_.push_back(std::move(value));
  }

  bool operator==(const Json& o) const {
    if (type_ != o.type_) return false;
    switch (type_) {
      case Type::kNull: return true;
      case Type::kBool: return bool_ == o.bool_;
      case Type::kNumber: return num_ == o.num_;
      case Type::kString: return str_ == o.str_;
      case Type::kArray: return arr_ == o.arr_;
      case Type::kObject: return obj_ == o.obj_;
    }
    return false;
  }

  // Compact (indent < 0) or pretty-printed serialisation.
  std::string dump(int indent = -1) const {
    std::string out;
    write(out, indent, 0);
    return out;
  }

  static Json parse(const std::string& text) {
    std::size_t pos = 0;
    Json v = parse_value(text, pos);
    skip_ws(text, pos);
    if (pos != text.size()) fail("trailing characters", pos);
    return v;
  }

 private:
  void expect(Type t) const {
    if (type_ != t) throw std::runtime_error("json: wrong value type");
  }

  static void newline(std::string& out, int indent, int depth) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  static void write_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  void write(std::string& out, int indent, int depth) const {
    switch (type_) {
      case Type::kNull: out += "null"; return;
      case Type::kBool: out += bool_ ? "true" : "false"; return;
      case Type::kNumber: {
        if (!std::isfinite(num_)) {
          out += "null";  // JSON has no NaN/Inf
          return;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        out += buf;
        return;
      }
      case Type::kString: write_string(out, str_); return;
      case Type::kArray: {
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
          if (i > 0) out += ',';
          newline(out, indent, depth + 1);
          arr_[i].write(out, indent, depth + 1);
        }
        if (!arr_.empty()) newline(out, indent, depth);
        out += ']';
        return;
      }
      case Type::kObject: {
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
          if (i > 0) out += ',';
          newline(out, indent, depth + 1);
          write_string(out, obj_[i].first);
          out += indent < 0 ? ":" : ": ";
          obj_[i].second.write(out, indent, depth + 1);
        }
        if (!obj_.empty()) newline(out, indent, depth);
        out += '}';
        return;
      }
    }
  }

  [[noreturn]] static void fail(const char* what, std::size_t pos) {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(pos));
  }

  static void skip_ws(const std::string& s, std::size_t& pos) {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
            s[pos] == '\r')) {
      ++pos;
    }
  }

  static bool consume(const std::string& s, std::size_t& pos,
                      const char* word) {
    const std::string w(word);
    if (s.compare(pos, w.size(), w) != 0) return false;
    pos += w.size();
    return true;
  }

  static std::string parse_string(const std::string& s, std::size_t& pos) {
    if (s[pos] != '"') fail("expected string", pos);
    ++pos;
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) fail("bad escape", pos);
      c = s[pos++];
      switch (c) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > s.size()) fail("bad \\u escape", pos);
          const unsigned long cp = std::stoul(s.substr(pos, 4), nullptr, 16);
          pos += 4;
          if (cp >= 0x80) fail("non-ASCII \\u escape unsupported", pos);
          out += static_cast<char>(cp);
          break;
        }
        default: out += c;  // \" \\ \/
      }
    }
    if (pos >= s.size()) fail("unterminated string", pos);
    ++pos;
    return out;
  }

  static Json parse_value(const std::string& s, std::size_t& pos) {
    skip_ws(s, pos);
    if (pos >= s.size()) fail("unexpected end", pos);
    const char c = s[pos];
    if (c == '{') {
      ++pos;
      Json obj = object();
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return obj;
      }
      for (;;) {
        skip_ws(s, pos);
        std::string key = parse_string(s, pos);
        skip_ws(s, pos);
        if (pos >= s.size() || s[pos] != ':') fail("expected ':'", pos);
        ++pos;
        obj.set(key, parse_value(s, pos));
        skip_ws(s, pos);
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == '}') {
          ++pos;
          return obj;
        }
        fail("expected ',' or '}'", pos);
      }
    }
    if (c == '[') {
      ++pos;
      Json arr{Array{}};
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return arr;
      }
      for (;;) {
        arr.push(parse_value(s, pos));
        skip_ws(s, pos);
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == ']') {
          ++pos;
          return arr;
        }
        fail("expected ',' or ']'", pos);
      }
    }
    if (c == '"') return Json(parse_string(s, pos));
    if (consume(s, pos, "true")) return Json(true);
    if (consume(s, pos, "false")) return Json(false);
    if (consume(s, pos, "null")) return Json();
    const char* begin = s.c_str() + pos;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) fail("unexpected character", pos);
    pos += static_cast<std::size_t>(end - begin);
    return Json(d);
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace e2e
