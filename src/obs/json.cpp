#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sysgo::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value() {
    skip_ws();
    if (peek() == '[' || peek() == '{') {
      if (depth_ == kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      ++depth_;
      Value v = peek() == '[' ? array() : object();
      --depth_;
      return v;
    }
    switch (peek()) {
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.str = string();
        return v;
      }
      case 't': literal("true"); return make_bool(true);
      case 'f': literal("false"); return make_bool(false);
      case 'n':
        if (text_.compare(pos_, 3, "nan") == 0) return number();
        literal("null");
        return Value{};
      default: return number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.boolean = b;
    return v;
  }

  void literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) fail("bad literal");
    pos_ += len;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writers only emit \u00XX for control bytes; decode the
          // BMP code point as UTF-8 for anything else.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  // A number token runs over the JSON number characters and letters, so
  // the `inf` and `nan` spellings that sysgo's %g writers give non-finite
  // doubles read back too.  The whole token must parse (std::from_chars,
  // which also takes subnormals), and it is kept in `str`.
  Value number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    v.str = text_.substr(start, pos_ - start);
    const char* const end = v.str.data() + v.str.size();
    const auto [ptr, ec] = std::from_chars(v.str.data(), end, v.number);
    if (ec != std::errc{} || ptr != end) fail("bad number");
    return v;
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open around pos_
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse(); }

std::int64_t as_i64(const Value& v) {
  return static_cast<std::int64_t>(std::llround(v.number));
}

}  // namespace sysgo::obs::json
