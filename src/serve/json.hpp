// Minimal strict JSON reading/writing for the serving wire protocol.
//
// The daemon's requests and responses are small JSON documents inside
// length-prefixed frames (wire.hpp).  This header gives the serve layer a
// dependency-free reader (strict: the whole payload must be one well-formed
// value, trailing garbage is an error) and the escaping/formatting helpers
// the response builders need.  Numbers are validated against the JSON
// grammar during the parse but kept as raw tokens; conversion goes through
// the checked io::parse_* helpers, keeping this file inside the project's
// raw-parse rule (cdlint R3).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cosmicdance::serve {

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

/// Escape `text` for embedding inside a JSON string literal (quotes not
/// included).  Control characters become \u00XX.
[[nodiscard]] std::string escape_json(std::string_view text);

/// Format a double as a JSON number token that round-trips bit-exactly
/// (%.17g), mapping non-finite values to null (JSON has no NaN/Inf).
[[nodiscard]] std::string json_number(double value);

}  // namespace cosmicdance::serve
