// Minimal recursive-descent JSON reader — just enough to validate the
// telemetry exporters' output (Chrome trace JSON, metrics JSONL, perf
// profiles) and to drive tools/perf_regress. Not a general-purpose library:
// numbers are doubles, and \uXXXX decoding is byte-oriented below 0x100 —
// \u00XX yields the single byte XX, exactly inverting obs::json_escape's
// byte-wise escaping of control/non-ASCII bytes, so escape -> parse
// round-trips arbitrary byte strings (higher code points, including
// surrogate pairs, decode to UTF-8 as usual).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fourq::obs::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

struct Value {
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<ValuePtr> arr;
  std::map<std::string, ValuePtr> obj;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
  // Object member access; throws (FOURQ_CHECK) on missing key / wrong type.
  const Value& at(const std::string& key) const;
  const Value& at(size_t i) const;
  double number() const;
  const std::string& string() const;
};

// Parses one JSON document. Returns nullptr (and sets *error when given)
// on malformed input, trailing garbage, or arrays and objects nested more
// than 256 levels deep (the parser recurses once per level).
ValuePtr parse(const std::string& text, std::string* error = nullptr);

// Parses JSON-lines: one document per non-empty line; any bad line fails
// the whole parse.
std::vector<ValuePtr> parse_lines(const std::string& text, std::string* error = nullptr);

}  // namespace fourq::obs::json

namespace fourq::obs {

// Shared provenance header stamped on every exported artifact — BENCH_*.json
// recorders, `fourqc` metrics.jsonl dumps, and snapshot-exporter files all
// carry one of these so any two numbers being compared can be traced to a
// schema, a commit, a generation time, and a machine configuration.
struct Provenance {
  std::string schema;         // e.g. "fourq.metrics.v1", "fourq.bench.v1"
  int version = 1;
  std::string git_sha;        // build-time commit (FOURQ_GIT_SHA), else "unknown"
  std::string timestamp_utc;  // ISO-8601 Zulu, generation time
  std::string machine_hash;   // MachineConfig/CompileKey hash hex; may be empty
};

// The commit the obs library was configured from ("unknown" outside git).
const char* build_git_sha();

// Provenance for `schema` stamped with the current UTC time.
Provenance make_provenance(const std::string& schema,
                           const std::string& machine_hash = "");

// One JSON object (no trailing newline), e.g.
//   {"schema":"fourq.metrics.v1","version":1,"git_sha":"abc","timestamp_utc":
//    "2026-01-01T00:00:00Z","machine_hash":"0f3a..."}
std::string provenance_json(const Provenance& p);

// provenance_json(make_provenance(...)) + '\n' — the conventional first line
// of a JSONL export. Consumers that key on "metric" skip it transparently.
std::string provenance_line(const std::string& schema,
                            const std::string& machine_hash = "");

}  // namespace fourq::obs
