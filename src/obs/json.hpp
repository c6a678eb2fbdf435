// Minimal JSON reader shared by the consumers that parse sysgo's own
// documents back (trace reports, bench snapshots, sweep records): objects,
// arrays, strings with the standard escapes, numbers (also `inf` and
// `nan`, which the %g writers print for non-finite doubles), bools, null.
// Object keys keep document order — the writers emit deterministic layouts
// and the readers preserve them.  Parse errors throw std::runtime_error
// with the byte offset, and so does nesting deeper than kMaxDepth (the
// reader recurses once per level).  This is a reader for sysgo's own
// output files, not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sysgo::obs::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's contents, or a number's token as written (so a reader can
  /// parse a 64-bit integer field exactly).
  std::string str;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// First member with `key`, or nullptr (objects only).
  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Deepest array/object nesting the reader accepts; sysgo's own documents
/// nest at most 4 deep.
inline constexpr int kMaxDepth = 256;

/// Parse a complete document (trailing garbage fails).
[[nodiscard]] Value parse(const std::string& text);

/// Nearest integer of a number value (the writers emit integral fields as
/// plain numbers).
[[nodiscard]] std::int64_t as_i64(const Value& v);

}  // namespace sysgo::obs::json
