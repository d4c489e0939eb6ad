#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ovp::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool parseInt(std::string_view text, std::int64_t& out) {
  text = trim(text);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

bool parseDouble(std::string_view text, double& out) {
  text = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

std::string humanBytes(Bytes n) {
  char buf[64];
  if (n >= MiB(1) && n % MiB(1) == 0) {
    std::snprintf(buf, sizeof buf, "%lld MB", static_cast<long long>(n / MiB(1)));
  } else if (n >= KiB(1) && n % KiB(1) == 0) {
    std::snprintf(buf, sizeof buf, "%lld KB", static_cast<long long>(n / KiB(1)));
  } else {
    std::snprintf(buf, sizeof buf, "%lld B", static_cast<long long>(n));
  }
  return buf;
}

std::string humanDuration(DurationNs ns) {
  char buf[64];
  const double v = static_cast<double>(ns);
  if (ns >= sec(1)) {
    std::snprintf(buf, sizeof buf, "%.3f s", v / 1e9);
  } else if (ns >= msec(1)) {
    std::snprintf(buf, sizeof buf, "%.3f ms", v / 1e6);
  } else if (ns >= usec(1)) {
    std::snprintf(buf, sizeof buf, "%.3f us", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(ns));
  }
  return buf;
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(ch) & 0xffU);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace ovp::util
