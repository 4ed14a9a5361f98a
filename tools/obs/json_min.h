#pragma once
// Minimal JSON reader for the observability tooling (health_report). The
// repo's obs layer only *writes* JSON (obs/json.h); the postmortem tools and
// tests need to read back what the exporters produced — telemetry JSONL
// lines, rule_lint --bounds-json, Chrome trace files — so this is a small
// recursive-descent parser over exactly the JSON subset those emitters use
// (no surrogate-pair escapes, numbers via strtod). Not a general-purpose
// library; errors carry a byte offset for postmortem-grade diagnostics.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apa::obstools {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  /// Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Typed accessors with fallbacks (wrong-kind values yield the fallback).
  [[nodiscard]] double num_or(double fallback) const;
  [[nodiscard]] long long int_or(long long fallback) const;
  [[nodiscard]] std::string str_or(const std::string& fallback) const;
  [[nodiscard]] bool bool_or(bool fallback) const;

  /// Member shorthand: value of `key` as a number/int/string, or fallback.
  [[nodiscard]] double get_num(std::string_view key, double fallback) const;
  [[nodiscard]] long long get_int(std::string_view key,
                                  long long fallback) const;
  [[nodiscard]] std::string get_str(std::string_view key,
                                    const std::string& fallback) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage is
/// an error). Returns false and fills `error` ("offset N: message") on any
/// syntax problem.
bool parse_json(std::string_view text, JsonValue* out, std::string* error);

/// Reads a whole file; false (with `error` set) when unreadable.
bool read_file(const std::string& path, std::string* out, std::string* error);

}  // namespace apa::obstools
