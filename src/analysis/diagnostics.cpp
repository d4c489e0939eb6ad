#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/strings.hpp"

namespace ovp::analysis {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* diagCodeName(DiagCode c) {
  switch (c) {
    case DiagCode::TimeRegression: return "TIME_REGRESSION";
    case DiagCode::CallEnterNested: return "CALL_ENTER_NESTED";
    case DiagCode::CallExitWithoutEnter: return "CALL_EXIT_WITHOUT_ENTER";
    case DiagCode::CallOpenAtEnd: return "CALL_OPEN_AT_END";
    case DiagCode::XferBeginMalformed: return "XFER_BEGIN_MALFORMED";
    case DiagCode::XferBeginDuplicate: return "XFER_BEGIN_DUPLICATE";
    case DiagCode::XferEndUnknownId: return "XFER_END_UNKNOWN_ID";
    case DiagCode::XferEndMalformed: return "XFER_END_MALFORMED";
    case DiagCode::XferOpenAtEnd: return "XFER_OPEN_AT_END";
    case DiagCode::SectionEndWithoutBegin: return "SECTION_END_WITHOUT_BEGIN";
    case DiagCode::SectionOpenAtEnd: return "SECTION_OPEN_AT_END";
    case DiagCode::EnableWithoutDisable: return "ENABLE_WITHOUT_DISABLE";
    case DiagCode::DisableWhileDisabled: return "DISABLE_WHILE_DISABLED";
    case DiagCode::EventWhileDisabled: return "EVENT_WHILE_DISABLED";
    case DiagCode::EventCountMismatch: return "EVENT_COUNT_MISMATCH";
    case DiagCode::RequestLeak: return "REQUEST_LEAK";
    case DiagCode::DoubleWait: return "DOUBLE_WAIT";
    case DiagCode::SendBufferReuse: return "SEND_BUFFER_REUSE";
    case DiagCode::RecvBufferOverlap: return "RECV_BUFFER_OVERLAP";
    case DiagCode::SectionMismatch: return "SECTION_MISMATCH";
    case DiagCode::RmaRace: return "RMA_RACE";
    case DiagCode::DeadlockCycle: return "DEADLOCK_CYCLE";
    case DiagCode::BlockingChain: return "BLOCKING_CHAIN";
    case DiagCode::SerializedTransfer: return "SERIALIZED_TRANSFER";
    case DiagCode::EarlyWait: return "EARLY_WAIT";
    case DiagCode::LateWait: return "LATE_WAIT";
    case DiagCode::TraceIncomplete: return "TRACE_INCOMPLETE";
    case DiagCode::StaticUnmatchedSend: return "STATIC_UNMATCHED_SEND";
    case DiagCode::StaticUnmatchedRecv: return "STATIC_UNMATCHED_RECV";
    case DiagCode::StaticTagMismatch: return "STATIC_TAG_MISMATCH";
    case DiagCode::StaticWildcardRecv: return "STATIC_WILDCARD_RECV";
    case DiagCode::StaticSizeMismatch: return "STATIC_SIZE_MISMATCH";
    case DiagCode::StaticDeadlock: return "STATIC_DEADLOCK";
    case DiagCode::StaticSerializedWindow: return "STATIC_SERIALIZED_WINDOW";
    case DiagCode::StaticOverlapShortfall: return "STATIC_OVERLAP_SHORTFALL";
    case DiagCode::ConformMismatch: return "CONFORM_MISMATCH";
    case DiagCode::SymMatchUnproven: return "SYM_MATCH_UNPROVEN";
    case DiagCode::SymMatchMismatch: return "SYM_MATCH_MISMATCH";
    case DiagCode::SymUnmatchedSend: return "SYM_UNMATCHED_SEND";
    case DiagCode::SymUnmatchedRecv: return "SYM_UNMATCHED_RECV";
    case DiagCode::SymDeadlockCycle: return "SYM_DEADLOCK_CYCLE";
    case DiagCode::SymDeadlockUnproven: return "SYM_DEADLOCK_UNPROVEN";
    case DiagCode::SymBarrierDivergence: return "SYM_BARRIER_DIVERGENCE";
  }
  return "?";
}

std::string Diagnostic::toString() const {
  std::ostringstream os;
  os << severityName(severity) << '[' << diagCodeName(code) << "] rank "
     << rank;
  if (time >= 0) os << " t=" << time;
  if (!site.empty()) os << " at " << site;
  if (has_event) {
    os << " event #" << event_index << " ("
       << overlap::eventTypeName(event.type) << " t=" << event.time
       << " id=" << event.id << " size=" << event.size << ')';
  }
  if (!detail.empty()) os << ": " << detail;
  if (gain > 0) os << " (est. recoverable " << gain << " ns)";
  if (count > 1) os << " [x" << count << "]";
  return os.str();
}

bool clean(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity != Severity::Note) return false;
  }
  return true;
}

std::vector<Diagnostic> dedupDiagnostics(std::vector<Diagnostic> diags) {
  std::vector<Diagnostic> out;
  out.reserve(diags.size());
  // (code, group) -> index of the surviving exemplar in `out`.
  std::map<std::pair<int, std::string>, std::size_t> seen;
  for (Diagnostic& d : diags) {
    if (d.group.empty()) {
      out.push_back(std::move(d));
      continue;
    }
    const auto key = std::make_pair(static_cast<int>(d.code), d.group);
    const auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(key, out.size());
      out.push_back(std::move(d));
    } else {
      Diagnostic& keep = out[it->second];
      keep.count += d.count;
      keep.gain = satAdd(keep.gain, d.gain);
    }
  }
  return out;
}

void sortDiagnostics(std::vector<Diagnostic>& diags) {
  std::stable_sort(
      diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
        if (a.severity != b.severity) return a.severity > b.severity;
        if (a.gain != b.gain) return a.gain > b.gain;
        if (a.rank != b.rank) return a.rank < b.rank;
        if (a.time != b.time) return a.time < b.time;
        if (a.code != b.code) return a.code < b.code;
        return a.detail < b.detail;
      });
}

int exitCode(const std::vector<Diagnostic>& diags) {
  return clean(diags) ? 0 : 1;
}

void writeDiagnosticsJson(const std::vector<Diagnostic>& diags,
                          std::ostream& os) {
  os << "[\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << "  {\"severity\":\"" << severityName(d.severity) << "\",\"code\":\""
       << diagCodeName(d.code) << "\",\"rank\":" << d.rank
       << ",\"time_ns\":" << d.time << ",\"site\":\""
       << util::jsonEscape(d.site) << "\",\"gain_ns\":" << d.gain
       << ",\"count\":" << d.count << ",\"detail\":\""
       << util::jsonEscape(d.detail) << "\"}";
    if (i + 1 < diags.size()) os << ',';
    os << '\n';
  }
  os << "]\n";
}

}  // namespace ovp::analysis
