#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/check.hpp"
#include "obs/span.hpp"  // json_escape

namespace fourq::obs::json {

const Value& Value::at(const std::string& key) const {
  FOURQ_CHECK_MSG(type == Type::kObject, "json: member access on non-object");
  auto it = obj.find(key);
  FOURQ_CHECK_MSG(it != obj.end(), "json: missing key \"" + key + "\"");
  return *it->second;
}

const Value& Value::at(size_t i) const {
  FOURQ_CHECK_MSG(type == Type::kArray && i < arr.size(), "json: bad array index");
  return *arr[i];
}

double Value::number() const {
  FOURQ_CHECK_MSG(type == Type::kNumber, "json: value is not a number");
  return num;
}

const std::string& Value::string() const {
  FOURQ_CHECK_MSG(type == Type::kString, "json: value is not a string");
  return str;
}

namespace {

// parse_value recurses once per array or object level; deeper documents are
// rejected before the recursion can exhaust the stack. The repo's own
// artifacts nest fewer than 10 levels.
constexpr int kMaxDepth = 256;

struct Parser {
  const char* p;
  const char* end;
  std::string err;

  bool fail(const std::string& m) {
    if (err.empty()) err = m;
    return false;
  }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_hex4(unsigned* out) {
    if (end - p < 4) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = p[i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    p += 4;
    *out = v;
    return true;
  }

  // \u00XX decodes to the single byte XX (inverting json_escape's byte-wise
  // escaping of control and non-ASCII bytes, so escape->parse round-trips
  // arbitrary byte strings exactly); code points above 0xFF encode as UTF-8.
  static void append_codepoint(std::string* out, unsigned cp) {
    if (cp < 0x100) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) return fail("bad escape");
        char e = *p++;
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case '/': out->push_back('/'); break;
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(&cp)) return fail("bad \\u escape");
            // Surrogate pair: combine \uD800-\uDBFF with the following
            // \uDC00-\uDFFF escape into one supplementary code point.
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              unsigned lo = 0;
              if (end - p >= 6 && p[0] == '\\' && p[1] == 'u') {
                p += 2;
                if (!parse_hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF)
                  return fail("bad surrogate pair");
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return fail("unpaired surrogate");
              }
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired surrogate");
            }
            append_codepoint(out, cp);
            break;
          }
          default: return fail("bad escape char");
        }
      } else {
        out->push_back(c);
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  // `depth` counts the arrays and objects that enclose the value.
  bool parse_value(ValuePtr* out, int depth = 0) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    *out = std::make_shared<Value>();
    Value& v = **out;
    char c = *p;
    if ((c == '{' || c == '[') && depth == kMaxDepth)
      return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    if (c == '{') {
      ++p;
      v.type = Type::kObject;
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      while (true) {
        std::string key;
        if (!parse_string(&key)) return false;
        if (!consume(':')) return false;
        ValuePtr member;
        if (!parse_value(&member, depth + 1)) return false;
        v.obj[key] = member;
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          skip_ws();
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++p;
      v.type = Type::kArray;
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      while (true) {
        ValuePtr elem;
        if (!parse_value(&elem, depth + 1)) return false;
        v.arr.push_back(elem);
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      v.type = Type::kString;
      return parse_string(&v.str);
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const char* words[] = {"true", "false", "null"};
      for (const char* w : words) {
        size_t n = std::string(w).size();
        if (static_cast<size_t>(end - p) >= n && std::string(p, n) == w) {
          p += n;
          if (*w == 'n') {
            v.type = Type::kNull;
          } else {
            v.type = Type::kBool;
            v.b = (*w == 't');
          }
          return true;
        }
      }
      return fail("bad literal");
    }
    // Number.
    char* numend = nullptr;
    v.type = Type::kNumber;
    v.num = std::strtod(p, &numend);
    if (numend == p || numend > end) return fail("bad number");
    p = numend;
    return true;
  }
};

}  // namespace

ValuePtr parse(const std::string& text, std::string* error) {
  Parser ps{text.data(), text.data() + text.size(), {}};
  ValuePtr v;
  bool ok = ps.parse_value(&v);
  if (ok) {
    ps.skip_ws();
    if (ps.p != ps.end) {
      ok = false;
      ps.fail("trailing garbage after document");
    }
  }
  if (!ok) {
    if (error) *error = ps.err;
    return nullptr;
  }
  return v;
}

std::vector<ValuePtr> parse_lines(const std::string& text, std::string* error) {
  std::vector<ValuePtr> out;
  size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string err;
    ValuePtr v = parse(line, &err);
    if (!v) {
      if (error) *error = "line " + std::to_string(lineno) + ": " + err;
      return {};
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace fourq::obs::json

namespace fourq::obs {

const char* build_git_sha() {
#ifdef FOURQ_GIT_SHA
  return FOURQ_GIT_SHA;
#else
  return "unknown";
#endif
}

Provenance make_provenance(const std::string& schema, const std::string& machine_hash) {
  Provenance p;
  p.schema = schema;
  p.git_sha = build_git_sha();
  p.machine_hash = machine_hash;
  std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  p.timestamp_utc = buf;
  return p;
}

std::string provenance_json(const Provenance& p) {
  std::string out = "{\"schema\":\"" + json_escape(p.schema) + "\"";
  out += ",\"version\":" + std::to_string(p.version);
  out += ",\"git_sha\":\"" + json_escape(p.git_sha) + "\"";
  out += ",\"timestamp_utc\":\"" + json_escape(p.timestamp_utc) + "\"";
  if (!p.machine_hash.empty())
    out += ",\"machine_hash\":\"" + json_escape(p.machine_hash) + "\"";
  out += "}";
  return out;
}

std::string provenance_line(const std::string& schema, const std::string& machine_hash) {
  return provenance_json(make_provenance(schema, machine_hash)) + "\n";
}

}  // namespace fourq::obs
