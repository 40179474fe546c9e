#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "sgnn/util/parse.hpp"

namespace sgnn::bench_compare {
namespace {

/// Recursive-descent parser for the JSON subset our reports use. Numbers
/// go through util::parse_double, so parsing is locale-independent.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON parse error at byte " + std::to_string(pos_) +
                     ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.type = Json::Type::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("invalid literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return Json{};
      }
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              --pos_;
              fail("invalid \\u escape");
            }
          }
          // Reports only emit \u for ASCII control characters; anything
          // beyond Latin-1 is replaced rather than UTF-8 encoded.
          out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (!eof()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    double value = 0;
    std::size_t consumed = 0;
    if (!sgnn::util::parse_double(token, value, &consumed) ||
        consumed != token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    Json v;
    v.type = Json::Type::kNumber;
    v.number = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const Json* find(const Json& object, const std::string& key) {
  const auto it = object.object.find(key);
  return it == object.object.end() ? nullptr : &it->second;
}

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).parse(); }

Report report_from_json(const Json& root) {
  if (root.type != Json::Type::kObject) {
    throw ParseError("report: top-level value is not an object");
  }
  const Json* schema = find(root, "schema");
  if (schema == nullptr || schema->type != Json::Type::kString) {
    throw ParseError("report: missing \"schema\" tag");
  }
  if (schema->str != "sgnn.bench_report.v1") {
    throw ParseError("report: unsupported schema '" + schema->str + "'");
  }
  Report report;
  if (const Json* name = find(root, "name");
      name != nullptr && name->type == Json::Type::kString) {
    report.name = name->str;
  }
  const Json* values = find(root, "values");
  if (values == nullptr || values->type != Json::Type::kObject) {
    throw ParseError("report: missing \"values\" object");
  }
  for (const auto& [key, entry] : values->object) {
    if (entry.type != Json::Type::kObject) {
      throw ParseError("report: values entry '" + key + "' is not an object");
    }
    const Json* value = find(entry, "value");
    if (value == nullptr || value->type != Json::Type::kNumber) {
      throw ParseError("report: values entry '" + key +
                       "' has no numeric \"value\"");
    }
    Value v;
    v.value = value->number;
    if (const Json* better = find(entry, "better");
        better != nullptr && better->type == Json::Type::kString) {
      v.better = better->str;
    } else {
      v.better = "none";
    }
    report.values.insert_or_assign(key, v);
  }
  return report;
}

Report parse_report(const std::string& text) {
  return report_from_json(parse_json(text));
}

CompareResult compare(const Report& baseline, const Report& current,
                      double threshold) {
  CompareResult result;
  for (const auto& [key, base] : baseline.values) {
    const auto it = current.values.find(key);
    if (it == current.values.end()) {
      result.only_baseline.push_back(key);
      continue;
    }
    Delta d;
    d.key = key;
    d.baseline = base.value;
    d.current = it->second.value;
    d.better = base.better;
    const double denom = std::max(std::abs(base.value), 1e-12);
    d.rel_change = (d.current - d.baseline) / denom;
    if (d.better == "lower") {
      d.regression = d.rel_change > threshold;
      d.improvement = d.rel_change < -threshold;
    } else if (d.better == "higher") {
      d.regression = d.rel_change < -threshold;
      d.improvement = d.rel_change > threshold;
    } else if (d.better == "exact") {
      d.exact_change = d.current != d.baseline;
      d.regression = d.exact_change;
    }
    result.has_regression = result.has_regression || d.regression;
    result.has_exact_change = result.has_exact_change || d.exact_change;
    result.deltas.push_back(std::move(d));
  }
  for (const auto& [key, value] : current.values) {
    (void)value;
    if (baseline.values.find(key) == baseline.values.end()) {
      result.only_current.push_back(key);
    }
  }
  return result;
}

int exit_code(const CompareResult& result, bool warn_only) {
  if (result.has_exact_change) return 1;
  return result.has_regression && !warn_only ? 1 : 0;
}

}  // namespace sgnn::bench_compare
