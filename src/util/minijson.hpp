// The repo's JSON in both directions.
//
// Writing: the one escape/quote/number set every JSON artifact is written
// with — Perfetto traces, flight-recorder dumps, step telemetry, BENCH
// reports and bench_diff's verdicts.
//
// Reading: a minimal DOM parser shared by the observability consumers that
// read the machine-written JSON this repo emits: the trace-export and
// bench-report golden-schema tests, the flight-recorder incident tests,
// and the tools/bench_diff perf-regression gate (which parses whole
// BENCH_*.json trees). Strict enough for machine-written JSON; not a
// general-purpose parser (\u escapes collapse to '?').
//
// Header-only and dependency-free so test binaries and the bench support
// library can both include it without a link edge.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gothic::minijson {

// --- writing -----------------------------------------------------------------

/// `s` with quotes, backslashes and control characters escaped.
inline std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  return out;
}

/// `s` as a JSON string literal. Built with += rather than
/// `"\"" + escaped(s) + "\""`: the rvalue operator+ chain trips a GCC 12
/// -Wrestrict false positive when inlined.
inline std::string quoted(std::string_view s) {
  std::string out = "\"";
  out += escaped(s);
  out += '"';
  return out;
}

/// Round-trip form of `v` (%.17g). JSON has no inf/nan literals, so those
/// are written as null and the document stays parseable.
inline std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

inline std::string num(std::uint64_t v) { return std::to_string(v); }

// --- reading -----------------------------------------------------------------

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  JsonValue parse() {
    JsonValue v = value();
    ws();
    if (p_ != end_) throw std::runtime_error("trailing content");
    return v;
  }

private:
  void ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  char peek() {
    if (p_ == end_) throw std::runtime_error("unexpected end");
    return *p_;
  }

  void expect(char c) {
    if (p_ == end_ || *p_ != c) {
      throw std::runtime_error(std::string("expected '") + c + "'");
    }
    ++p_;
  }

  bool consume_literal(const char* lit) {
    const char* q = p_;
    for (const char* l = lit; *l != '\0'; ++l, ++q) {
      if (q == end_ || *q != *l) return false;
    }
    p_ = q;
    return true;
  }

  JsonValue value() {
    ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      v.type = JsonValue::Type::Object;
      expect('{');
      ws();
      if (peek() == '}') {
        ++p_;
        return v;
      }
      while (true) {
        ws();
        JsonValue key = value();
        if (key.type != JsonValue::Type::String) {
          throw std::runtime_error("object key must be a string");
        }
        ws();
        expect(':');
        v.object[key.str] = value();
        ws();
        if (peek() == ',') {
          ++p_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::Array;
      expect('[');
      ws();
      if (peek() == ']') {
        ++p_;
        return v;
      }
      while (true) {
        v.array.push_back(value());
        ws();
        if (peek() == ',') {
          ++p_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::String;
      expect('"');
      while (peek() != '"') {
        char ch = *p_++;
        if (ch == '\\') {
          const char esc = peek();
          ++p_;
          switch (esc) {
            case 'n': ch = '\n'; break;
            case 't': ch = '\t'; break;
            case 'r': ch = '\r'; break;
            case 'b': ch = '\b'; break;
            case 'f': ch = '\f'; break;
            case 'u':
              for (int i = 0; i < 4; ++i) {
                if (!std::isxdigit(static_cast<unsigned char>(peek()))) {
                  throw std::runtime_error("bad \\u escape");
                }
                ++p_;
              }
              ch = '?';
              break;
            default: ch = esc;
          }
        }
        v.str += ch;
      }
      ++p_;
      return v;
    }
    if (consume_literal("true")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::Bool;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number.
    char* out = nullptr;
    v.type = JsonValue::Type::Number;
    v.number = std::strtod(p_, &out);
    if (out == p_) throw std::runtime_error("bad number");
    p_ = out;
    return v;
  }

  const char* p_;
  const char* end_;
};

inline std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, got);
  }
  std::fclose(f);
  return out;
}

} // namespace gothic::minijson
