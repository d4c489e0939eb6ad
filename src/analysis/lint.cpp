#include "analysis/lint.hpp"

#include <ostream>
#include <utility>

#include "analysis/advisor.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/hb_graph.hpp"
#include "analysis/race_detector.hpp"

namespace ovp::analysis {

namespace {

void append(std::vector<Diagnostic>& to, std::vector<Diagnostic> from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

}  // namespace

LintResult runLint(const trace::Collector& c) {
  LintResult result;

  std::vector<trace::MessageEdge> messages = trace::matchMessages(c);
  std::vector<Diagnostic> waits = analyzeWaitFor(c, messages);
  {
    // The edges are freed once the graph is built, so the race pass's
    // heap peak does not hold them too.
    const HbGraph g = buildHbGraph(c, std::exchange(messages, {}));
    result.hb_incomplete = g.incomplete;
    for (const std::string& reason : g.incomplete_reasons) {
      Diagnostic d;
      d.severity = Severity::Note;
      d.code = DiagCode::TraceIncomplete;
      d.site = "happens-before construction";
      d.group = "hb-incomplete";
      d.detail = reason;
      result.diagnostics.push_back(std::move(d));
    }
    append(result.diagnostics, detectRaces(g));
  }
  append(result.diagnostics, std::move(waits));
  append(result.diagnostics, adviseOverlap(c));

  // Per-rank dropped-record counts limit every pass, not just HB.
  for (Rank r = 0; r < c.nranks(); ++r) {
    const std::int64_t n = c.ring(r).dropped();
    if (n <= 0) continue;
    Diagnostic d;
    d.severity = Severity::Note;
    d.code = DiagCode::TraceIncomplete;
    d.rank = r;
    d.site = "trace ring";
    d.group = "dropped";
    d.count = n;
    d.detail = "trace ring overflowed; oldest-kept policy dropped newer "
               "records — raise the ring capacity for full coverage";
    result.diagnostics.push_back(std::move(d));
  }

  result.diagnostics = dedupDiagnostics(std::move(result.diagnostics));
  sortDiagnostics(result.diagnostics);
  return result;
}

void printLintText(const LintResult& result, std::ostream& os) {
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  for (const Diagnostic& d : result.diagnostics) {
    os << d.toString() << '\n';
    switch (d.severity) {
      case Severity::Error:
        ++errors;
        break;
      case Severity::Warning:
        ++warnings;
        break;
      case Severity::Note:
        ++notes;
        break;
    }
  }
  os << "ovprof_lint: " << errors << " error(s), " << warnings
     << " warning(s), " << notes << " note(s)";
  if (result.hb_incomplete) os << " [trace incomplete]";
  os << '\n';
}

}  // namespace ovp::analysis
