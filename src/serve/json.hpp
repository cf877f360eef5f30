// The project's one JSON reader, plus the serve-namespace names of the
// shared writer (common/json.hpp).
//
// The daemon's requests and responses are small JSON documents inside
// length-prefixed frames (wire.hpp); the tests validate every JSON the
// project emits through this same reader.  It is strict: the whole payload
// must be one well-formed value, and trailing garbage is an error.  Numbers
// are validated against the JSON grammar during the parse but kept as raw
// tokens; conversion goes through the checked io::parse_* helpers, keeping
// this file inside the project's raw-parse rule (cdlint R3).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cosmicdance::serve {

using cosmicdance::escape_json;
using cosmicdance::json_number;

/// One parsed JSON value.  Objects keep insertion order (no hashing, so
/// iteration is deterministic); lookups are linear, which is fine at
/// request sizes.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Decoded text for kString; the raw token for kNumber.
  std::string text;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// The value as a double (kNumber only; checked conversion).
  [[nodiscard]] std::optional<double> number() const;
  /// The value as a long (kNumber only; rejects fractions / exponents that
  /// do not parse as a base-10 integer).
  [[nodiscard]] std::optional<long> integer() const;
};

/// Deepest array/object nesting parse_json accepts.  The reader recurses
/// once per level, and a frame may carry up to 16 MiB, so an unbounded
/// depth lets one request of '[' bytes overflow a connection thread's
/// stack.  Requests are flat objects; 64 levels is far past any of them.
inline constexpr int kMaxJsonDepth = 64;

/// Parse one complete JSON document; nullopt on any syntax error or on
/// nesting deeper than kMaxJsonDepth.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace cosmicdance::serve
