// The one JSON writer: string escaping and number formatting shared by
// every JSON the project emits (quality reports, --metrics/--trace, cdlint
// --json, daemon responses).  The matching reader is serve::parse_json,
// which sits higher in the layering because it converts numbers through
// the checked io::parse_* helpers.
#pragma once

#include <string>
#include <string_view>

namespace cosmicdance {

/// Escape `text` for embedding inside a JSON string literal (quotes not
/// included).  `"`, `\` and the control characters with short forms use
/// them; every other byte below 0x20 becomes \u00XX.  Bytes from 0x20 up,
/// including UTF-8 sequences, pass through unchanged.
[[nodiscard]] std::string escape_json(std::string_view text);

/// Format a double as a JSON number token that round-trips bit-exactly
/// (%.17g), mapping non-finite values to null (JSON has no NaN/Inf).
[[nodiscard]] std::string json_number(double value);

}  // namespace cosmicdance
