// String helpers used by flag parsing, file formats and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace ovp::util {

/// Splits on a single-character delimiter; does not merge empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

[[nodiscard]] bool startsWith(std::string_view text, std::string_view prefix);

/// Parses a signed integer; returns false (leaving out untouched) on any
/// non-numeric or out-of-range input.
[[nodiscard]] bool parseInt(std::string_view text, std::int64_t& out);

/// Parses a double; same contract as parseInt.
[[nodiscard]] bool parseDouble(std::string_view text, double& out);

/// "10 KB" style rendering for message sizes (powers of 1024).
[[nodiscard]] std::string humanBytes(Bytes n);

/// Renders a duration with an auto-selected unit (ns / us / ms / s).
[[nodiscard]] std::string humanDuration(DurationNs ns);

/// Escapes `text` for a JSON string literal: quote, backslash, \n and \t
/// get their short escapes, other control bytes become \u00xx (lower-case
/// hex), everything else is copied unchanged.
[[nodiscard]] std::string jsonEscape(std::string_view text);

}  // namespace ovp::util
