// ovprof_check orchestration: run the static passes over one skeleton and
// merge their findings through the shared Diagnostic layer (same dedup,
// ranking and exit-code conventions as the dynamic lint pipeline).
#pragma once

#include <iosfwd>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "overlap/xfer_table.hpp"
#include "skeleton/conform.hpp"
#include "skeleton/deadlock.hpp"
#include "skeleton/ir.hpp"
#include "skeleton/match.hpp"
#include "skeleton/overlap_window.hpp"
#include "trace/collector.hpp"

namespace ovp::skel {

/// Inputs of the passes; every pass always runs.
struct CheckConfig {
  DeadlockConfig deadlock_cfg;
  /// Transfer-time table for the overlap-window pass; an empty table
  /// silently disables the pricing (nothing to price against).
  overlap::XferTimeTable table;
};

struct CheckResult {
  /// All passes' findings: deduped, severity/gain-ranked.
  std::vector<analysis::Diagnostic> diagnostics;
  std::vector<SiteWindow> sites;  // overlap-window report rows
  std::int64_t ops = 0;           // skeleton size
  std::int64_t matched = 0;       // static pairs formed
  std::int64_t unmatched = 0;     // leftover halves
  std::int64_t blocking_nodes = 0;
  std::int64_t windows = 0;  // priced overlap windows
  /// Set when runCheckConform was used.
  bool conform_ran = false;
  std::int64_t conform_edges = 0;

  [[nodiscard]] bool clean() const { return analysis::clean(diagnostics); }
  [[nodiscard]] int exitCode() const {
    return analysis::exitCode(diagnostics);
  }
};

/// Static passes only.
[[nodiscard]] CheckResult runCheck(const Skeleton& skel,
                                   const CheckConfig& cfg = {});

/// Static passes plus trace conformance against `collector`.
[[nodiscard]] CheckResult runCheckConform(const Skeleton& skel,
                                          const CheckConfig& cfg,
                                          const trace::Collector& collector);

/// Human-readable report: one line per finding, the overlap-window site
/// table, and a summary line.
void printCheckText(const CheckResult& result, std::ostream& os);

}  // namespace ovp::skel
