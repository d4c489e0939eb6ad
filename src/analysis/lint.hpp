// ovprof lint: the offline cross-rank analysis pipeline.
//
// Runs the three trace passes — happens-before race detection, wait-for
// deadlock/stall analysis, overlap advice — over one Collector (live from a
// machine run, or reloaded from the CSV export via trace::readCsv), then
// dedups and ranks the findings through the shared Diagnostic layer.
// Output is deterministic: same trace bytes, same diagnostics, same order.
#pragma once

#include <iosfwd>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "trace/collector.hpp"

namespace ovp::analysis {

struct LintResult {
  /// Deduped, severity/gain-ranked findings.
  std::vector<Diagnostic> diagnostics;
  /// Happens-before construction hit dropped records; race verdicts are
  /// weakened (also surfaced as a TRACE_INCOMPLETE note).
  bool hb_incomplete = false;

  [[nodiscard]] bool clean() const { return analysis::clean(diagnostics); }
  [[nodiscard]] int exitCode() const {
    return analysis::exitCode(diagnostics);
  }
};

/// Runs all three passes over `c`.
[[nodiscard]] LintResult runLint(const trace::Collector& c);

/// Human-readable report (one line per finding plus a summary line).
void printLintText(const LintResult& result, std::ostream& os);

}  // namespace ovp::analysis
