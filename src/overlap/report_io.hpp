// Shared load/save/merge helpers for per-rank report files.
//
// Every driver that persists reports writes one file per rank named
// "<prefix>.rank<R>.ovp" (the exact Report::save format).  The naming,
// save loop and load-until-missing scan used to be re-implemented by each
// consumer (the machine layer, nas_run, bench drivers, offline tools);
// this header is the single place that knows the convention.
#pragma once

#include <string>
#include <vector>

#include "overlap/report.hpp"
#include "util/types.hpp"

namespace ovp::overlap {

struct ReportIo {
  /// Canonical per-rank report path: "<prefix>.rank<R>.ovp".
  [[nodiscard]] static std::string rankPath(const std::string& prefix,
                                            Rank rank);

  /// Writes every report to rankPath(prefix, report.rank).  Returns false
  /// on the first file that cannot be written (earlier files remain).
  [[nodiscard]] static bool saveAll(const std::vector<Report>& reports,
                                    const std::string& prefix);

  /// Loads rankPath(prefix, 0), rankPath(prefix, 1), ... until the first
  /// missing file.  At least one rank file must exist and every present
  /// file must parse; on failure returns false and sets `error`.
  [[nodiscard]] static bool loadAll(const std::string& prefix,
                                    std::vector<Report>& out,
                                    std::string* error = nullptr);

  /// Loads an explicit list of report files (any naming).  All must parse;
  /// on failure returns false and sets `error` to the offending path.
  [[nodiscard]] static bool loadFiles(const std::vector<std::string>& paths,
                                      std::vector<Report>& out,
                                      std::string* error = nullptr);
};

}  // namespace ovp::overlap
