#include "analysis/advisor.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "trace/record.hpp"

namespace ovp::analysis {

namespace {

using trace::Record;
using trace::RecordKind;

// EARLY_WAIT's absolute floor on the blocked span (filters noise on tiny
// transfers whose T is comparable to call overhead), and LATE_WAIT's
// threshold: elapsed >= kLateWaitFactor * T.
constexpr DurationNs kEarlyWaitFloor = 2 * 1000;  // 2 us
constexpr double kLateWaitFactor = 2.0;

struct OpenXfer {
  TimeNs begin = 0;
  Bytes bytes = 0;
  std::int64_t call_seq = -1;  // which call posted it (-1: outside any call)
};

}  // namespace

std::vector<Diagnostic> adviseOverlap(const trace::Collector& c) {
  std::vector<Diagnostic> out;
  const overlap::XferTimeTable& table = c.table();

  for (Rank r = 0; r < c.nranks(); ++r) {
    const trace::TraceRing& ring = c.ring(r);
    std::unordered_map<std::int64_t, OpenXfer> open;
    std::int64_t call_seq = -1;   // increments at every CALL_ENTER
    bool in_call = false;
    TimeNs call_enter = 0;

    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      switch (rec.kind) {
        case RecordKind::CallEnter:
          ++call_seq;
          in_call = true;
          call_enter = rec.time;
          break;
        case RecordKind::CallExit:
          in_call = false;
          break;
        case RecordKind::XferBegin:
          open[rec.id] = {rec.time, rec.bytes, in_call ? call_seq : -1};
          break;
        case RecordKind::XferEnd: {
          const auto it = open.find(rec.id);
          if (it == open.end()) break;  // case 3: initiation unobserved
          const OpenXfer& x = it->second;
          const DurationNs elapsed = rec.time - x.begin;
          const DurationNs t_wire = table.lookup(x.bytes);
          if (in_call && x.call_seq == call_seq) {
            // Begun and finished inside one call: fully synchronous.
            const DurationNs gain =
                std::min<DurationNs>(t_wire, rec.time - x.begin);
            if (gain > 0) {
              Diagnostic d;
              d.severity = Severity::Note;
              d.code = DiagCode::SerializedTransfer;
              d.rank = r;
              d.time = x.begin;
              d.site = "blocking call";
              d.gain = gain;
              d.group = std::to_string(r) + ":" + std::to_string(x.bytes);
              d.detail = "transfer of " + std::to_string(x.bytes) +
                         " B begins and ends inside one library call; split "
                         "into post + wait and overlap computation to "
                         "recover up to xfer_time";
              out.push_back(std::move(d));
            }
          } else if (in_call && t_wire > 0) {
            const DurationNs blocked = rec.time - call_enter;
            if (blocked >= kEarlyWaitFloor && 4 * blocked >= t_wire) {
              Diagnostic d;
              d.severity = Severity::Note;
              d.code = DiagCode::EarlyWait;
              d.rank = r;
              d.time = call_enter;
              d.site = "wait";
              d.gain = blocked;
              d.group = std::to_string(r) + ":" + std::to_string(x.bytes);
              d.detail = "wait entered " + std::to_string(blocked) +
                         " ns before a " + std::to_string(x.bytes) +
                         " B transfer finished (xfer_time " +
                         std::to_string(t_wire) +
                         " ns); move independent computation before the "
                         "wait to absorb the remainder";
              out.push_back(std::move(d));
            } else if (static_cast<double>(elapsed) >=
                           kLateWaitFactor * static_cast<double>(t_wire) &&
                       10 * blocked < t_wire) {
              Diagnostic d;
              d.severity = Severity::Note;
              d.code = DiagCode::LateWait;
              d.rank = r;
              d.time = rec.time;
              d.site = "wait";
              d.gain = 0;
              d.group = std::to_string(r) + ":" + std::to_string(x.bytes);
              d.detail = "transfer of " + std::to_string(x.bytes) +
                         " B was retired " + std::to_string(elapsed - t_wire) +
                         " ns after the wire finished; overlap is already "
                         "full — consume the completion earlier only if the "
                         "buffer or result is needed sooner";
              out.push_back(std::move(d));
            }
          }
          open.erase(it);
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

}  // namespace ovp::analysis
