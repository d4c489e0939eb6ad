// Time-resolved overlap analysis: the paper's 3-case bounds resolved over
// fixed time windows instead of whole-run.
//
// replayRank runs each rank's monitor-origin records (an exact prefix of
// the event stream the Processor consumed — see TraceRing's keep-oldest
// policy) through overlap::Replay, the Processor's own state machine, and
// closes still-open transfers at the rank's finalize time.  Each transfer
// therefore yields bit-identical (xfer_time, min, max) values to the
// summary report; the window pass adds only attribution.  The advisor
// (analysis/advisor.hpp) is a second sink of the same replay, and the
// Chrome export (export.cpp) a third: it draws its compute, call and
// transfer tracks from the replay, interleaved with the ring's other
// records and closed at its own horizon.
//
// Attribution over windows is exact, not approximate: a transfer's values
// are spread over the windows its [begin, end) span intersects,
// proportionally to the intersection length, using cumulative integer
// division so the per-window pieces sum to the whole-run value without
// rounding loss.  Indivisible quantities (transfer count, bytes) land in
// the window containing the transfer's END.  Occupancy integrals
// (communication-call time, computation time) are split at window borders
// exactly.  Consequence: summing any column over a rank's windows
// reproduces the rank report's whole-run number identically — the
// reconciliation the acceptance test checks.
//
// Windows are anchored at virtual time 0 and shared by all ranks, so
// window k means the same interval on every rank (and in the merged view).
#pragma once

#include <cstdint>
#include <vector>

#include "overlap/replay.hpp"
#include "overlap/report.hpp"
#include "trace/collector.hpp"
#include "util/types.hpp"

namespace ovp::trace {

/// Per-window measures for one rank.
struct WindowStats {
  /// Time inside communication calls / in user computation within the
  /// window (disabled intervals excluded, as in the report).
  DurationNs comm_time = 0;
  DurationNs comp_time = 0;
  /// Transfers whose END fell in this window, and their bytes.
  std::int64_t transfers = 0;
  Bytes bytes = 0;
  /// Window share of a-priori transfer time and of the overlap bounds.
  DurationNs data_transfer_time = 0;
  DurationNs min_overlap = 0;
  DurationNs max_overlap = 0;

  /// Adds w column by column.  The sums saturate (satAdd): a loaded trace
  /// can carry any times and counts.
  WindowStats& operator+=(const WindowStats& w) {
    comm_time = satAdd(comm_time, w.comm_time);
    comp_time = satAdd(comp_time, w.comp_time);
    transfers = satAdd(transfers, w.transfers);
    bytes = satAdd(bytes, w.bytes);
    data_transfer_time = satAdd(data_transfer_time, w.data_transfer_time);
    min_overlap = satAdd(min_overlap, w.min_overlap);
    max_overlap = satAdd(max_overlap, w.max_overlap);
    return *this;
  }
};

struct RankWindows {
  Rank rank = -1;
  DurationNs window_ns = 0;
  std::vector<WindowStats> windows;
  /// Whole-run sums of the window columns (what the report should match).
  overlap::OverlapAccum total;
  DurationNs comm_total = 0;
  DurationNs comp_total = 0;
  /// Monitor-origin records dropped by the ring: when non-zero the replay
  /// only covers the retained prefix and totals will undershoot the report.
  std::int64_t dropped = 0;
};

/// The Monitor event a monitor-origin record was made from.
[[nodiscard]] inline overlap::Event monitorEvent(const Record& rec) {
  return {static_cast<overlap::EventType>(rec.kind), rec.time, rec.id,
          rec.bytes};
}

/// Replays rank r's monitor-origin records through overlap::Replay, closing
/// at the rank's end time, and hands `sink` every priced transfer (see
/// replay.hpp for the sink's hooks).  `table_override`, when set, prices
/// with that table instead of the collector's own.
template <typename Sink>
void replayRank(const Collector& c, Rank r, Sink& sink,
                const overlap::XferTimeTable* table_override = nullptr) {
  overlap::Replay<typename Sink::Payload> replay(
      table_override != nullptr ? *table_override : c.table());
  const TraceRing& ring = c.ring(r);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Record& rec = ring.at(i);
    if (isMonitorOrigin(rec.kind)) replay.consume(monitorEvent(rec), sink);
  }
  replay.finish(c.endTime(r), sink);
}

/// Bins rank r's timeline into fixed windows of `window_ns`.  All ranks
/// share the window grid (anchored at t=0) and the job horizon, so every
/// RankWindows has the same windows.size().
///
/// `table_override` substitutes a different a-priori transfer-time table
/// for the replay (what-if prediction: reprice the recorded schedule under
/// scaled latency/bandwidth); nullptr replays with the collector's own
/// table and reproduces the live run bit-for-bit.
[[nodiscard]] RankWindows analyzeWindows(
    const Collector& c, Rank r, DurationNs window_ns,
    const overlap::XferTimeTable* table_override = nullptr);

[[nodiscard]] std::vector<RankWindows> analyzeAllWindows(
    const Collector& c, DurationNs window_ns,
    const overlap::XferTimeTable* table_override = nullptr);

/// Element-wise sum across ranks (all inputs must share a window grid).
[[nodiscard]] std::vector<WindowStats> sumWindows(
    const std::vector<RankWindows>& per_rank);

}  // namespace ovp::trace
