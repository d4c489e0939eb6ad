#include "trace/timeline.hpp"

#include <algorithm>

namespace ovp::trace {

namespace {

/// Replay sink that attributes each transfer over the window grid; the
/// payload of an open transfer is its BEGIN time.
struct WindowSink {
  using Payload = TimeNs;
  RankWindows& out;

  [[nodiscard]] std::size_t windowOf(TimeNs t) const {
    return std::min(static_cast<std::size_t>(t / out.window_ns),
                    out.windows.size() - 1);
  }
  [[nodiscard]] TimeNs windowEnd(std::size_t k) const {
    return (static_cast<TimeNs>(k) + 1) * out.window_ns;
  }

  /// Exact proportional attribution of `v` over span [a, b) across the
  /// grid: cumulative integer division guarantees the pieces sum to v.
  /// Window sums saturate like OverlapAccum's.
  void spread(TimeNs a, TimeNs b, DurationNs v,
              DurationNs WindowStats::*field) {
    if (v == 0) return;
    if (b <= a) {
      DurationNs& sum = out.windows[windowOf(a)].*field;
      sum = satAdd(sum, v);
      return;
    }
    DurationNs allocated = 0;
    DurationNs cum = 0;
    for (std::size_t k = windowOf(a); k <= windowOf(b - 1); ++k) {
      const TimeNs lo = std::max<TimeNs>(a, windowEnd(k) - out.window_ns);
      cum += std::min<TimeNs>(b, windowEnd(k)) - lo;
      const auto share = static_cast<DurationNs>(
          (static_cast<__int128>(v) * cum) / (b - a));
      DurationNs& sum = out.windows[k].*field;
      sum = satAdd(sum, share - allocated);
      allocated = share;
    }
  }

  /// Occupancy of [a, b), split exactly at window borders.
  void occupied(TimeNs a, TimeNs b, bool in_call) {
    // One rank's occupancy sums to at most its time span.
    (in_call ? out.comm_total : out.comp_total) += b - a;
    DurationNs WindowStats::*field =
        in_call ? &WindowStats::comm_time : &WindowStats::comp_time;
    for (std::size_t k = windowOf(a); a < b; ++k) {
      const TimeNs piece_end =
          k + 1 < out.windows.size() ? std::min<TimeNs>(b, windowEnd(k)) : b;
      out.windows[k].*field += piece_end - a;
      a = piece_end;
    }
  }
  void entered(TimeNs /*t*/) {}
  void begun(TimeNs t, TimeNs& begin) { begin = t; }
  void priced(const overlap::PricedXfer& x, const TimeNs* begin) {
    // An END with no observed BEGIN lands in the window the library learned
    // of the transfer in.
    const TimeNs a = begin != nullptr ? *begin : x.end;
    out.total.addTransfer(x.size, x.in.xfer_time, x.bounds);
    WindowStats& end_win = out.windows[windowOf(x.end)];
    ++end_win.transfers;
    end_win.bytes = satAdd(end_win.bytes, x.size);
    spread(a, x.end, x.in.xfer_time, &WindowStats::data_transfer_time);
    spread(a, x.end, x.bounds.min_overlap, &WindowStats::min_overlap);
    spread(a, x.end, x.bounds.max_overlap, &WindowStats::max_overlap);
  }
};

}  // namespace

RankWindows analyzeWindows(const Collector& c, Rank r, DurationNs window_ns,
                           const overlap::XferTimeTable* table_override) {
  if (window_ns <= 0) window_ns = msec(1);
  RankWindows out;
  out.rank = r;
  out.window_ns = window_ns;
  out.dropped = c.ring(r).dropped();

  const TimeNs horizon = c.jobEndTime();
  const std::size_t nwin =
      horizon <= 0 ? 1
                   : static_cast<std::size_t>((horizon - 1) / window_ns) + 1;
  out.windows.assign(nwin, WindowStats{});

  WindowSink sink{out};
  replayRank(c, r, sink, table_override);
  return out;
}

std::vector<RankWindows> analyzeAllWindows(
    const Collector& c, DurationNs window_ns,
    const overlap::XferTimeTable* table_override) {
  std::vector<RankWindows> out;
  out.reserve(static_cast<std::size_t>(c.nranks()));
  for (Rank r = 0; r < c.nranks(); ++r) {
    out.push_back(analyzeWindows(c, r, window_ns, table_override));
  }
  return out;
}

std::vector<WindowStats> sumWindows(const std::vector<RankWindows>& per_rank) {
  std::vector<WindowStats> out;
  for (const RankWindows& rw : per_rank) {
    if (rw.windows.size() > out.size()) out.resize(rw.windows.size());
    for (std::size_t k = 0; k < rw.windows.size(); ++k) {
      out[k] += rw.windows[k];
    }
  }
  return out;
}

}  // namespace ovp::trace
