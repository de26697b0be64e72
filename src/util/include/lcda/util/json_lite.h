#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lcda::util {

/// Minimal JSON value for serializing and loading designs, scenarios and
/// experiment results.
///
/// Builds a tree and renders it (keys emitted in insertion order), and
/// parses the same subset back: objects, arrays, strings, numbers, bools,
/// null. Numbers render with shortest-round-trip formatting, so a
/// dump/parse cycle reproduces every double bit-for-bit — the property the
/// persistent evaluation cache and the scenario golden traces rely on.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(long long v) : value_(static_cast<double>(v)) {}
  Json(std::size_t v) : value_(static_cast<double>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}

  /// Creates an empty object / array.
  static Json object();
  static Json array();

  /// Parses a JSON document. Throws std::runtime_error with a position on
  /// malformed input, trailing garbage, or arrays/objects nested deeper
  /// than 512 levels.
  static Json parse(std::string_view text);

  /// Object access; converts a null value into an object on first use.
  Json& operator[](const std::string& key);

  /// Array append; converts a null value into an array on first use.
  void push_back(Json v);

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_bool() const;
  [[nodiscard]] bool is_number() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_object() const;
  [[nodiscard]] bool is_array() const;

  /// Typed reads; throw std::logic_error when the value holds another type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] long long as_int() const;  ///< throws if not integral
  [[nodiscard]] const std::string& as_string() const;

  /// Object lookup. contains() is false for non-objects; at() throws on a
  /// missing key or non-object.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Array element access; throws on non-arrays or out-of-range indices.
  [[nodiscard]] const Json& at(std::size_t index) const;

  /// Number of object keys / array elements; 0 for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Object key/value pairs in insertion order (empty for non-objects) —
  /// the iteration primitive for deserializers and unknown-key detection.
  [[nodiscard]] std::vector<std::pair<std::string, Json>> items() const;

  /// Array elements (empty for non-arrays).
  [[nodiscard]] std::vector<Json> elements() const;

  /// Serializes; `indent` < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = -1) const;

  [[nodiscard]] bool operator==(const Json& other) const;

 private:
  struct ObjectRep {
    std::vector<std::pair<std::string, Json>> items;
  };
  struct ArrayRep {
    std::vector<Json> items;
  };
  using Value = std::variant<std::nullptr_t, bool, double, std::string,
                             std::shared_ptr<ObjectRep>, std::shared_ptr<ArrayRep>>;

  void dump_to(std::string& out, int indent, int depth) const;
  Value value_;
};

/// Escapes a string for embedding in JSON (exposed for tests).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace lcda::util
