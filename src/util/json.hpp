// Minimal JSON library: one Value type that both parses and writes.
//
// Every machine-readable artifact the repo emits — `validate --json`, the
// RunReport of `kronotri run` — used to hand-roll its JSON with ostream
// inserts, each file re-inventing escaping and number formatting. This
// module centralizes that: build a Value tree and dump() it, or parse() an
// incoming document (the `run --plan` job descriptions). The surface is
// deliberately tiny — objects keep insertion order, numbers distinguish
// unsigned/signed/double so 64-bit triangle counts round-trip exactly, and
// there is no DOM mutation API beyond set/push_back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace kronotri::util::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kUInt, kInt, kDouble, kString, kArray, kObject };
  using Member = std::pair<std::string, Value>;

  Value() = default;  ///< null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kDouble), double_(d) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(std::string_view s) : kind_(Kind::kString), string_(s) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T v) {  // NOLINT(google-explicit-constructor) — literals as values
    if constexpr (std::is_signed_v<T>) {
      kind_ = Kind::kInt;
      int_ = static_cast<std::int64_t>(v);
    } else {
      kind_ = Kind::kUInt;
      uint_ = static_cast<std::uint64_t>(v);
    }
  }

  [[nodiscard]] static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kUInt || kind_ == Kind::kInt ||
           kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch (an
  /// in-range signed/unsigned crossover is allowed, as is reading any
  /// number as double).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // -- arrays ---------------------------------------------------------------
  /// Appends to an array (a null Value becomes an array first).
  Value& push_back(Value v);
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] std::size_t size() const;

  // -- objects --------------------------------------------------------------
  /// Sets (appends or replaces) a member; a null Value becomes an object.
  Value& set(std::string key, Value v);
  /// Appends a member WITHOUT scanning for an existing key — for bulk
  /// builders (histograms) whose keys are known unique; set()'s
  /// replace-scan is linear per insert and would make them quadratic.
  Value& append(std::string key, Value v);
  /// Pointer to the member value, or nullptr when absent / not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Convenience lookups with fallbacks, for plan/report consumers.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;
  [[nodiscard]] std::uint64_t get_uint(std::string_view key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Parses one JSON document (trailing non-whitespace is an error); throws
  /// std::invalid_argument with the byte offset of the problem.
  [[nodiscard]] static Value parse(std::string_view text);

  /// Pretty-prints with `indent` spaces per level (0 = single line).
  void dump(std::ostream& os, int indent = 2) const;
  [[nodiscard]] std::string dump_string(int indent = 2) const;

  /// Canonical single-line form: object members sorted by key (bytewise,
  /// recursively — insertion order is ignored), no whitespace anywhere, and
  /// the same exact number formatting as dump() (u64/i64 printed integral,
  /// doubles as the shortest round-trippable decimal). Two trees holding
  /// the same data always canonicalize to the same bytes, which is what
  /// makes hash64(dump_canonical_string()) a sound cache key for
  /// deterministic work (the service's result cache).
  void dump_canonical(std::ostream& os) const;
  [[nodiscard]] std::string dump_canonical_string() const;

 private:
  void dump_impl(std::ostream& os, int indent, int depth) const;
  void dump_canonical_impl(std::ostream& os) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Writes `text` with JSON string escaping (quotes, backslashes, control
/// characters), without the surrounding quotes.
void escape(std::ostream& os, std::string_view text);

/// 64-bit FNV-1a digest of `bytes`. Stable across platforms and runs (no
/// per-process seeding), so digests can be pinned in tests and exchanged
/// between a service and its clients as job/cache identifiers. Not
/// cryptographic — collision resistance is "good enough for a cache whose
/// lookups also compare the full key".
[[nodiscard]] std::uint64_t hash64(std::string_view bytes) noexcept;

/// Object {"<key>": count, …} from an integer→integer map — the shape every
/// count/degree histogram in the repo serializes to.
template <typename Map>
[[nodiscard]] Value histogram(const Map& hist) {
  Value out = Value::object();
  for (const auto& [value, freq] : hist) {
    out.append(std::to_string(value), freq);  // map keys are unique
  }
  return out;
}

}  // namespace kronotri::util::json
