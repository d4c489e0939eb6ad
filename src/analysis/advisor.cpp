#include "analysis/advisor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "trace/timeline.hpp"

namespace ovp::analysis {

namespace {

// EARLY_WAIT's absolute floor on the blocked span (filters noise on tiny
// transfers whose T is comparable to call overhead), and LATE_WAIT's
// threshold: elapsed >= kLateWaitFactor * T.
constexpr DurationNs kEarlyWaitFloor = 2 * 1000;  // 2 us
constexpr double kLateWaitFactor = 2.0;

/// Replay sink that turns priced transfers into advice; the payload of an
/// open transfer is its BEGIN time.
struct AdviceSink {
  using Payload = TimeNs;
  Rank rank;
  std::vector<Diagnostic>& out;
  TimeNs call_enter = 0;

  void occupied(TimeNs /*a*/, TimeNs /*b*/, bool /*in_call*/) {}
  void entered(TimeNs t) { call_enter = t; }
  void begun(TimeNs t, TimeNs& begin) { begin = t; }
  void priced(const overlap::PricedXfer& x, const TimeNs* begin);

  void note(DiagCode code, TimeNs time, const char* site, DurationNs gain,
            Bytes bytes, std::string detail) {
    Diagnostic d;
    d.severity = Severity::Note;
    d.code = code;
    d.rank = rank;
    d.time = time;
    d.site = site;
    d.gain = gain;
    d.group = std::to_string(rank) + ":" + std::to_string(bytes);
    d.detail = std::move(detail);
    out.push_back(std::move(d));
  }
};

void AdviceSink::priced(const overlap::PricedXfer& x, const TimeNs* begin) {
  // Only transfers with both stamps seen carry a schedule to advise on.
  if (!x.in.begin_seen || !x.in.end_seen) return;
  const DurationNs elapsed = x.end - *begin;
  const DurationNs t_wire = x.in.xfer_time;
  if (x.in.same_call) {
    // Begun and finished inside one call: fully synchronous.
    const DurationNs gain = std::min<DurationNs>(t_wire, elapsed);
    if (gain > 0) {
      note(DiagCode::SerializedTransfer, *begin, "blocking call", gain, x.size,
           "transfer of " + std::to_string(x.size) +
               " B begins and ends inside one library call; split into "
               "post + wait and overlap computation to recover up to "
               "xfer_time");
    }
  } else if (x.end_in_call && t_wire > 0) {
    const DurationNs blocked = x.end - call_enter;
    if (blocked >= kEarlyWaitFloor && 4 * blocked >= t_wire) {
      note(DiagCode::EarlyWait, call_enter, "wait", blocked, x.size,
           "wait entered " + std::to_string(blocked) + " ns before a " +
               std::to_string(x.size) + " B transfer finished (xfer_time " +
               std::to_string(t_wire) +
               " ns); move independent computation before the wait to "
               "absorb the remainder");
    } else if (static_cast<double>(elapsed) >=
                   kLateWaitFactor * static_cast<double>(t_wire) &&
               10 * blocked < t_wire) {
      note(DiagCode::LateWait, x.end, "wait", 0, x.size,
           "transfer of " + std::to_string(x.size) + " B was retired " +
               std::to_string(elapsed - t_wire) +
               " ns after the wire finished; overlap is already full — "
               "consume the completion earlier only if the buffer or "
               "result is needed sooner");
    }
  }
}

}  // namespace

std::vector<Diagnostic> adviseOverlap(const trace::Collector& c) {
  std::vector<Diagnostic> out;
  for (Rank r = 0; r < c.nranks(); ++r) {
    AdviceSink sink{r, out};
    trace::replayRank(c, r, sink);
  }
  return out;
}

}  // namespace ovp::analysis
