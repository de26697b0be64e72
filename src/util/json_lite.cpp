#include "lcda/util/json_lite.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lcda::util {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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

Json Json::object() {
  Json j;
  j.value_ = std::make_shared<ObjectRep>();
  return j;
}

Json Json::array() {
  Json j;
  j.value_ = std::make_shared<ArrayRep>();
  return j;
}

bool Json::is_null() const {
  return std::holds_alternative<std::nullptr_t>(value_);
}

bool Json::is_bool() const { return std::holds_alternative<bool>(value_); }

bool Json::is_number() const { return std::holds_alternative<double>(value_); }

bool Json::is_string() const {
  return std::holds_alternative<std::string>(value_);
}

bool Json::is_object() const {
  return std::holds_alternative<std::shared_ptr<ObjectRep>>(value_);
}

bool Json::is_array() const {
  return std::holds_alternative<std::shared_ptr<ArrayRep>>(value_);
}

bool Json::as_bool() const {
  if (auto* b = std::get_if<bool>(&value_)) return *b;
  throw std::logic_error("Json::as_bool: not a bool");
}

double Json::as_double() const {
  if (auto* d = std::get_if<double>(&value_)) return *d;
  throw std::logic_error("Json::as_double: not a number");
}

long long Json::as_int() const {
  const double d = as_double();
  if (d != std::floor(d) || std::abs(d) >= 9.2e18) {
    throw std::logic_error("Json::as_int: not an integral number");
  }
  return static_cast<long long>(d);
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  throw std::logic_error("Json::as_string: not a string");
}

bool Json::contains(const std::string& key) const {
  auto* rep = std::get_if<std::shared_ptr<ObjectRep>>(&value_);
  if (!rep) return false;
  for (const auto& [k, v] : (*rep)->items) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  auto* rep = std::get_if<std::shared_ptr<ObjectRep>>(&value_);
  if (!rep) throw std::logic_error("Json::at: not an object");
  for (const auto& [k, v] : (*rep)->items) {
    if (k == key) return v;
  }
  throw std::logic_error("Json::at: missing key \"" + key + "\"");
}

const Json& Json::at(std::size_t index) const {
  auto* rep = std::get_if<std::shared_ptr<ArrayRep>>(&value_);
  if (!rep) throw std::logic_error("Json::at: not an array");
  if (index >= (*rep)->items.size()) throw std::logic_error("Json::at: index");
  return (*rep)->items[index];
}

std::size_t Json::size() const {
  if (auto* obj = std::get_if<std::shared_ptr<ObjectRep>>(&value_)) {
    return (*obj)->items.size();
  }
  if (auto* arr = std::get_if<std::shared_ptr<ArrayRep>>(&value_)) {
    return (*arr)->items.size();
  }
  return 0;
}

std::vector<std::pair<std::string, Json>> Json::items() const {
  if (auto* obj = std::get_if<std::shared_ptr<ObjectRep>>(&value_)) {
    return (*obj)->items;
  }
  return {};
}

std::vector<Json> Json::elements() const {
  if (auto* arr = std::get_if<std::shared_ptr<ArrayRep>>(&value_)) {
    return (*arr)->items;
  }
  return {};
}

bool Json::operator==(const Json& other) const {
  if (value_.index() != other.value_.index()) return false;
  if (auto* obj = std::get_if<std::shared_ptr<ObjectRep>>(&value_)) {
    return (*obj)->items ==
           (*std::get_if<std::shared_ptr<ObjectRep>>(&other.value_))->items;
  }
  if (auto* arr = std::get_if<std::shared_ptr<ArrayRep>>(&value_)) {
    return (*arr)->items ==
           (*std::get_if<std::shared_ptr<ArrayRep>>(&other.value_))->items;
  }
  return value_ == other.value_;
}

Json& Json::operator[](const std::string& key) {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    value_ = std::make_shared<ObjectRep>();
  }
  auto* rep = std::get_if<std::shared_ptr<ObjectRep>>(&value_);
  if (!rep) throw std::logic_error("Json::operator[]: not an object");
  for (auto& [k, v] : (*rep)->items) {
    if (k == key) return v;
  }
  (*rep)->items.emplace_back(key, Json());
  return (*rep)->items.back().second;
}

void Json::push_back(Json v) {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    value_ = std::make_shared<ArrayRep>();
  }
  auto* rep = std::get_if<std::shared_ptr<ArrayRep>>(&value_);
  if (!rep) throw std::logic_error("Json::push_back: not an array");
  (*rep)->items.push_back(std::move(v));
}

namespace {
void append_number(std::string& out, double d) {
  if (std::isfinite(d)) {
    // Integers print without a decimal point.
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      char buf[32];
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf),
                                     static_cast<long long>(d));
      (void)ec;
      out.append(buf, ptr);
    } else {
      // Shortest representation that parses back to the same double — the
      // exactness the persistent cache and golden traces depend on.
      char buf[64];
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
      (void)ec;
      out.append(buf, ptr);
    }
  } else {
    out += "null";  // JSON has no NaN/Inf
  }
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string pad_close = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = indent >= 0 ? "\n" : "";

  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (auto* d = std::get_if<double>(&value_)) {
    append_number(out, *d);
  } else if (auto* s = std::get_if<std::string>(&value_)) {
    out += '"';
    out += json_escape(*s);
    out += '"';
  } else if (auto* obj = std::get_if<std::shared_ptr<ObjectRep>>(&value_)) {
    if ((*obj)->items.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    bool first = true;
    for (const auto& [k, v] : (*obj)->items) {
      if (!first) {
        out += ',';
        out += nl;
      }
      first = false;
      out += pad;
      out += '"';
      out += json_escape(k);
      out += indent >= 0 ? "\": " : "\":";
      v.dump_to(out, indent, depth + 1);
    }
    out += nl;
    out += pad_close;
    out += '}';
  } else if (auto* arr = std::get_if<std::shared_ptr<ArrayRep>>(&value_)) {
    if ((*arr)->items.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    bool first = true;
    for (const auto& v : (*arr)->items) {
      if (!first) {
        out += ',';
        out += nl;
      }
      first = false;
      out += pad;
      v.dump_to(out, indent, depth + 1);
    }
    out += nl;
    out += pad_close;
    out += ']';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ------------------------------------------------------------------ parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json::parse: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // One stack frame per level: a hostile document must fail like any
      // other malformed one instead of overflowing the stack.
      if (depth_ == kMaxDepth) fail("nesting deeper than 512 levels");
      ++depth_;
      Json nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json(nullptr);
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u for control characters; decode the
          // Latin-1 range and reject the rest rather than mis-encode.
          if (code > 0xff) fail("unsupported \\u escape > 0xff");
          out += static_cast<char>(code);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return Json(value);
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace lcda::util
