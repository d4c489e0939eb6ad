// String helpers used by flag parsing, file formats and report writers.
#pragma once

#include <charconv>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace ovp::util {

/// Strips ASCII whitespace (space, \t, \n, \v, \f, \r) from both ends.
/// Inline, like parseInt: the loaders call both once per field.
[[nodiscard]] inline std::string_view trim(std::string_view text) {
  const auto space = [](char ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  return text;
}

[[nodiscard]] bool startsWith(std::string_view text, std::string_view prefix);

/// Parses a signed integer; returns false (leaving out untouched) on any
/// non-numeric or out-of-range input.
[[nodiscard]] inline bool parseInt(std::string_view text, std::int64_t& out) {
  text = trim(text);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

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

/// Renders `v` as a JSON number ("%.12g"); non-finite values, which JSON
/// cannot spell, become null.
[[nodiscard]] std::string jsonNum(double v);

}  // namespace ovp::util
