#pragma once
// Minimal JSON document model for the observability exports.
//
// Every machine-readable artifact this repository emits — metrics snapshots,
// Chrome trace-event files, BENCH_*.json perf records — flows through this
// one writer so escaping and number formatting are correct in exactly one
// place (the structured-log corruption fixed in util/log.cpp is the cautionary
// tale). The parser exists so tests can round-trip what the exporters write
// and so the regression gate can read committed baselines without external
// dependencies. It is a strict, small RFC 8259 subset: no comments, no
// trailing commas, UTF-8 passed through verbatim.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace multihit::obs {

/// Raised by JsonValue::parse on malformed input, with byte offset context.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value. Objects preserve insertion order (exports stay diffable);
/// numbers are doubles (sufficient for every telemetry quantity emitted here
/// — counts stay exact below 2^53).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(int value) : kind_(Kind::kNumber), number_(value) {}
  JsonValue(std::int64_t value) : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value) : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}
  JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(std::string_view value) : kind_(Kind::kString), string_(value) {}
  JsonValue(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
  JsonValue(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const { return require(Kind::kBool), bool_; }
  double as_number() const { return require(Kind::kNumber), number_; }
  const std::string& as_string() const { return require(Kind::kString), string_; }
  const Array& as_array() const { return require(Kind::kArray), array_; }
  Array& as_array() { return require(Kind::kArray), array_; }
  const Object& as_object() const { return require(Kind::kObject), object_; }
  Object& as_object() { return require(Kind::kObject), object_; }

  /// Empty-container factories, clearer than JsonValue(Object{}) at call
  /// sites that build documents incrementally.
  static JsonValue object() { return JsonValue(Object{}); }
  static JsonValue array() { return JsonValue(Array{}); }

  /// Element count for arrays and objects; 0 for every scalar kind.
  std::size_t size() const noexcept {
    if (kind_ == Kind::kArray) return array_.size();
    if (kind_ == Kind::kObject) return object_.size();
    return 0;
  }

  /// Array element access (throws on non-arrays / out of range).
  const JsonValue& at(std::size_t index) const { return as_array().at(index); }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const noexcept;

  /// Appends/overwrites an object member (value becomes an object if null).
  void set(std::string key, JsonValue value);

  /// Appends an array element (value becomes an array if null).
  void push_back(JsonValue value);

  /// Serializes to a compact single-line document.
  std::string dump() const;

  /// Parses a complete JSON document (throws JsonParseError on malformed
  /// input, trailing garbage, or containers nested more than 512 deep).
  static JsonValue parse(std::string_view text);

 private:
  void require(Kind kind) const {
    if (kind_ != kind) throw std::logic_error("JsonValue: wrong kind accessed");
  }
  void dump_to(std::string& out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// JSON string escaping (quotes not included): `"`, `\`, and control
/// characters become escape sequences; everything else passes through.
std::string json_escape(std::string_view text);

/// Shortest round-trippable decimal for a double (integral values print
/// without a fraction so counts look like counts).
std::string json_number(double value);

}  // namespace multihit::obs
