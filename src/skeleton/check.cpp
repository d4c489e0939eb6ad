#include "skeleton/check.hpp"

#include <ostream>

namespace ovp::skel {

namespace {

CheckResult runPasses(const Skeleton& skel, const CheckConfig& cfg,
                      const trace::Collector* collector) {
  CheckResult result;
  result.ops = skel.totalOps();
  std::vector<analysis::Diagnostic> all;

  // The deadlock pass consumes the match pairing.
  const MatchResult match = runMatch(skel);
  result.matched = match.matched;
  result.unmatched = match.unmatched;
  all.insert(all.end(), match.diagnostics.begin(), match.diagnostics.end());
  {
    const DeadlockResult dl = runDeadlock(skel, match, cfg.deadlock_cfg);
    result.blocking_nodes = dl.nodes;
    all.insert(all.end(), dl.diagnostics.begin(), dl.diagnostics.end());
  }
  {
    OverlapWindowResult ow = runOverlapWindow(skel, cfg.table);
    result.windows = ow.windows;
    result.sites = std::move(ow.sites);
    all.insert(all.end(), ow.diagnostics.begin(), ow.diagnostics.end());
  }
  if (collector != nullptr) {
    result.conform_ran = true;
    const MatchRelation rel = buildMatchRelation(skel);
    const ConformResult conf = runConform(skel, rel, *collector);
    result.conform_edges = conf.match_edges + conf.rma_edges;
    all.insert(all.end(), conf.diagnostics.begin(),
               conf.diagnostics.end());
  }

  result.diagnostics = analysis::dedupDiagnostics(std::move(all));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

}  // namespace

CheckResult runCheck(const Skeleton& skel, const CheckConfig& cfg) {
  return runPasses(skel, cfg, nullptr);
}

CheckResult runCheckConform(const Skeleton& skel, const CheckConfig& cfg,
                            const trace::Collector& collector) {
  return runPasses(skel, cfg, &collector);
}

void printCheckText(const CheckResult& result, std::ostream& os) {
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  for (const analysis::Diagnostic& d : result.diagnostics) {
    os << d.toString() << '\n';
    switch (d.severity) {
      case analysis::Severity::Error:
        ++errors;
        break;
      case analysis::Severity::Warning:
        ++warnings;
        break;
      case analysis::Severity::Note:
        ++notes;
        break;
    }
  }
  if (!result.sites.empty()) {
    os << "overlap windows (structural bound from xfer_time):\n";
    for (const SiteWindow& row : result.sites) {
      os << "  " << (row.site.empty() ? "<unlabeled>" : row.site) << ": "
         << row.transfers << " transfer(s), " << row.bytes << " B, priced "
         << row.priced << " ns, window " << row.window << " ns, bound "
         << static_cast<std::int64_t>(row.boundPct()) << '%';
      if (row.serialized > 0) os << ", " << row.serialized << " serialized";
      os << '\n';
    }
  }
  os << "ovprof_check: " << result.ops << " op(s), " << result.matched
     << " matched pair(s), " << result.blocking_nodes
     << " blocking node(s), " << result.windows << " window(s)";
  if (result.conform_ran) {
    os << ", " << result.conform_edges << " traced edge(s) checked";
  }
  os << "; " << errors << " error(s), " << warnings << " warning(s), "
     << notes << " note(s)\n";
}

}  // namespace ovp::skel
