// The observability layer's one JSON writer and one JSON reader.
//
// The trace sink and the metrics snapshot both need to emit JSON without
// pulling in a third-party library. JsonWriter builds one value into a
// std::string; nesting is the caller's responsibility (begin/end pairs).
// Doubles are printed with %.17g so that a value round-trips exactly and,
// more importantly, so that two identical runs produce byte-identical
// output — the determinism tests compare trace files bytewise.
//
// parse_json() reads those documents back (trace lines, metrics, bench and
// perf files, stats heartbeats) for the post-run tools. It is strict: any
// syntax error, trailing garbage, bad escape or nesting deeper than
// kJsonMaxDepth rejects the whole document, so a torn line is dropped, never
// half-read. Numbers keep their source text and convert on access with
// strtoull/strtoll/strtod, so full-range u64 ids and %.17g doubles read back
// bit-exact and re-printed numbers keep the writer's spelling.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hydra::obs {

class JsonWriter {
 public:
  void begin_object() {
    comma();
    out_.push_back('{');
    fresh_ = true;
  }
  void end_object() {
    out_.push_back('}');
    fresh_ = false;
  }
  void begin_array() {
    comma();
    out_.push_back('[');
    fresh_ = true;
  }
  void end_array() {
    out_.push_back(']');
    fresh_ = false;
  }

  /// Emits `"name":` — must be followed by exactly one value.
  void key(std::string_view name) {
    comma();
    string_raw(name);
    out_.push_back(':');
    fresh_ = true;  // the upcoming value must not be preceded by a comma
  }

  void value(std::string_view s) {
    comma();
    string_raw(s);
    fresh_ = false;
  }
  void value(const char* s) { value(std::string_view{s}); }
  void value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    fresh_ = false;
  }
  void value(double d) {
    comma();
    if (!std::isfinite(d)) {
      out_ += "null";  // JSON has no NaN or infinity
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out_ += buf;
    }
    fresh_ = false;
  }
  void value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    fresh_ = false;
  }
  void value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    fresh_ = false;
  }
  void value(std::uint32_t v) { value(std::uint64_t{v}); }
  void value(int v) { value(std::int64_t{v}); }

  template <typename T>
  void kv(std::string_view name, T v) {
    key(name);
    value(v);
  }

  /// Splices an already-serialized JSON value (e.g. a Registry snapshot).
  void raw(std::string_view json) {
    comma();
    out_ += json;
    fresh_ = false;
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_.push_back(',');
  }

  void string_raw(std::string_view s) {
    out_.push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
  }

  std::string out_;
  bool fresh_ = true;
};

/// Deepest container nesting parse_json() accepts (the top-level value is
/// depth 1). Everything this library writes stays below 5.
inline constexpr std::size_t kJsonMaxDepth = 32;

/// One parsed JSON value. Scalars keep their source text: string contents
/// (unescaped), numbers and true/false/null as written. Containers keep
/// their elements in document order; an object's member names sit in
/// keys(), parallel to items().
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// A scalar's source text; empty for containers and missing members.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  [[nodiscard]] std::uint64_t as_u64() const {
    return std::strtoull(text_.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::int64_t as_i64() const {
    return std::strtoll(text_.c_str(), nullptr, 10);
  }
  [[nodiscard]] double as_double() const { return std::strtod(text_.c_str(), nullptr); }

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<std::string>& keys() const noexcept { return keys_; }

  /// The first member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Like find(), but a missing member reads as an empty null value (text
  /// "", every number 0, no items).
  [[nodiscard]] const JsonValue& operator[](std::string_view key) const noexcept;

  /// The elements, converted with as_double() / as_u64().
  [[nodiscard]] std::vector<double> reals() const;
  [[nodiscard]] std::vector<std::uint64_t> u64s() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  std::string text_;
  std::vector<std::string> keys_;
  std::vector<JsonValue> items_;
};

/// Parses one complete JSON document (surrounding whitespace allowed).
/// nullopt on any deviation from the grammar — see the file comment.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view doc);

}  // namespace hydra::obs
