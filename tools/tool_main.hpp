// Shared CLI scaffolding for the ovprof_* analysis tools.
//
// Every tool follows the same conventions: positional arguments and dashed
// flags may be interleaved; dashed arguments are checked against the tool's
// flag declaration (util::Cli); `-h`/`--help` or a bare invocation prints
// the usage generated from that declaration and exits 0 (every binary runs
// standalone); a rejected flag exits 2.  This header centralizes that
// split so the tools stay byte-for-byte consistent about it.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.hpp"

namespace ovp::tool {

struct CommandLine {
  util::Flags flags;
  std::vector<std::string> positional;
};

/// Splits argv into positional arguments and flags parsed against `cli`.
/// Prints usage and exits 0 on -h/--help or when no positional argument is
/// given; exits 2 when util::Flags rejects an argument.
[[nodiscard]] inline CommandLine parseCommandLine(int argc, char** argv,
                                                  const util::Cli& cli) {
  CommandLine cl;
  std::vector<char*> flag_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0 || arg == "-h") {
      flag_args.push_back(argv[i]);
    } else {
      cl.positional.emplace_back(arg);
    }
  }
  cl.flags = util::Flags::parseOrExit(static_cast<int>(flag_args.size()),
                                      flag_args.data(), cli);
  if (cl.positional.empty()) {
    std::fputs(util::usage(cli).c_str(), stdout);
    std::exit(0);
  }
  return cl;
}

/// Parses a rank-count sweep spec: INT | A-B | A-B:pow2, comma-joined
/// ("8", "2,4,6", "8-64:pow2").  Counts are deduplicated, first-appearance
/// order kept.  An empty spec parses to an empty list (tool default).
[[nodiscard]] inline bool parseProcsSpec(const std::string& spec,
                                         std::vector<int>& out,
                                         std::string& error) {
  out.clear();
  if (spec.empty()) return true;
  const auto parse_int = [](const std::string& s, int& v) {
    if (s.empty()) return false;
    v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      if (v > 100000000) return false;
      v = v * 10 + (c - '0');
    }
    return v >= 1;
  };
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    const std::size_t dash = item.find('-');
    if (dash == std::string::npos) {
      int v = 0;
      if (!parse_int(item, v)) {
        error = "bad count '" + item + "'";
        return false;
      }
      out.push_back(v);
      continue;
    }
    std::string range = item;
    bool pow2_only = false;
    const std::size_t colon = range.find(':');
    if (colon != std::string::npos) {
      const std::string qual = range.substr(colon + 1);
      if (qual != "pow2") {
        error = "unknown qualifier ':" + qual + "' (only :pow2)";
        return false;
      }
      pow2_only = true;
      range = range.substr(0, colon);
    }
    int lo = 0;
    int hi = 0;
    if (!parse_int(range.substr(0, dash), lo) ||
        !parse_int(range.substr(dash + 1), hi) || lo > hi) {
      error = "bad range '" + item + "'";
      return false;
    }
    if (!pow2_only && hi - lo > 4096) {
      error = "range '" + item + "' too wide (max 4096 counts)";
      return false;
    }
    for (int v = lo; v <= hi; ++v) {
      if (pow2_only && (v & (v - 1)) != 0) continue;
      out.push_back(v);
    }
  }
  std::vector<int> uniq;
  for (const int v : out) {
    bool seen = false;
    for (const int u : uniq) seen = seen || u == v;
    if (!seen) uniq.push_back(v);
  }
  out = std::move(uniq);
  if (out.empty()) {
    error = "spec '" + spec + "' selects no counts";
    return false;
  }
  return true;
}

/// Resolves an output stream: `path` empty -> stdout, else `file` opened at
/// `path` (binary, so output bytes are deterministic across platforms).
/// Returns nullptr after printing an error when the file cannot be opened.
[[nodiscard]] inline std::ostream* openOutput(const char* tool,
                                              const std::string& path,
                                              std::ofstream& file) {
  if (path.empty()) return &std::cout;
  file.open(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "%s: failed to write %s\n", tool, path.c_str());
    return nullptr;
  }
  return &file;
}

}  // namespace ovp::tool
