// Seeded line mutator for the loader fuzz tests.
//
// A mutant is a valid input with one to three edits: a line deleted,
// duplicated, swapped with another or cut short; one field of a line
// (fields split at `sep`) replaced by an extreme or malformed value; or a
// garbage line inserted.  Every choice comes from one util::Rng seeded by
// the caller, so a failing mutant is reproduced from its seed alone.
// mutateSpec applies the same edits to the items of a one-line spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ovp::fuzz {

inline std::vector<std::string> mutateLines(std::vector<std::string> lines,
                                            std::uint64_t seed, char sep) {
  static const char* const kValues[] = {
      "",     "-1", "0",  "x", "9223372036854775807", "-9223372036854775808",
      "2147483648", "99999999999999999999", " 7 ", "1e3"};
  static const char* const kGarbage[] = {
      "#", "# ranks", ",,,,,,,,,,", "rank,seq", "end", "\t", "\x01\x7f"};
  util::Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  const int edits = static_cast<int>(rng.range(1, 3));
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    const std::size_t at = pick(lines.size());
    switch (rng.below(6)) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         pick(lines.size() + 1)),
                     lines[at]);
        break;
      case 2:
        std::swap(lines[at], lines[pick(lines.size())]);
        break;
      case 3:
        lines[at].resize(pick(lines[at].size() + 1));
        break;
      case 4: {
        // Replace the k-th field, keeping the separators around it.
        std::string& line = lines[at];
        std::size_t fields = 1;
        for (const char ch : line) fields += ch == sep ? 1 : 0;
        const std::size_t k = pick(fields);
        std::size_t begin = 0;
        for (std::size_t i = 0; i < k; ++i) begin = line.find(sep, begin) + 1;
        std::size_t end = line.find(sep, begin);
        if (end == std::string::npos) end = line.size();
        line.replace(begin, end - begin,
                     kValues[pick(std::size(kValues))]);
        break;
      }
      default:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     kGarbage[pick(std::size(kGarbage))]);
        break;
    }
  }
  return lines;
}

/// A one-line spec ("drop=0.05,seed=3") mutated the same way: its items,
/// split at `item_sep`, are the lines, and `field_sep` splits an item.
inline std::string mutateSpec(const std::string& spec, std::uint64_t seed,
                              char item_sep, char field_sep) {
  std::vector<std::string> items(1);
  for (const char ch : spec) {
    if (ch == item_sep) {
      items.emplace_back();
    } else {
      items.back() += ch;
    }
  }
  std::string out;
  const std::vector<std::string> mutated = mutateLines(items, seed, field_sep);
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    if (i > 0) out += item_sep;
    out += mutated[i];
  }
  return out;
}

}  // namespace ovp::fuzz
