// Cross-rank happens-before construction over a completed trace.
//
// Walks every rank's retained record stream once, maintaining one vector
// clock per rank.  Every record ticks its rank's component; the two
// cross-rank synchronization sources join clocks:
//
//   * MATCH records (receiver side) join with the clock snapshot of the
//     SEND_POST that trace::matchMessages pairs them with (`edges`);
//   * BARRIER records join every participating rank's clock at its own
//     barrier record of the same epoch (records are stamped at barrier
//     exit, so each rank's pre-join clock already covers the completions
//     it drained while waiting inside the barrier).
//
// The walk is a worklist over per-rank cursors: a rank blocks at a MATCH
// whose sender snapshot isn't produced yet (or was never recorded) and at a
// BARRIER whose epoch hasn't seen all ranks.  On a complete trace the
// worklist drains exactly; when records were dropped (keep-oldest ring
// overflow) a blocked cursor can starve, and the builder then
// force-progresses the lowest blocked rank without the join and marks the
// graph incomplete — the race detector's verdicts stay available but are
// flagged as weakened.
//
// Output: clock snapshots for every RMA access (at post) and its
// origin-side settle (RMA_COMPLETE), which is all the race detector needs.
#pragma once

#include <string>
#include <vector>

#include "analysis/vector_clock.hpp"
#include "trace/collector.hpp"
#include "trace/critical_path.hpp"
#include "util/types.hpp"

namespace ovp::analysis {

/// One remote-memory access (one record; strided ops contribute one entry
/// per row, sharing `op`).
struct RmaAccess {
  Rank origin = -1;
  Rank target = -1;
  trace::RecordKind kind = trace::RecordKind::RmaPut;
  std::int64_t op = 0;
  std::int32_t segment = -1;  // -1: target memory never registered
  std::int64_t offset = -1;
  Bytes bytes = 0;
  TimeNs post_time = 0;
  TimeNs settle_time = -1;
  bool settled = false;
  VectorClock post_clock;
  VectorClock settle_clock;

  [[nodiscard]] bool isWrite() const {
    return kind != trace::RecordKind::RmaGet;
  }
};

struct HbGraph {
  /// All RMA accesses, grouped by origin rank in stream order.
  std::vector<RmaAccess> accesses;
  /// True when dropped/missing records forced the builder to skip a join;
  /// happens-before is then an under-approximation (more pairs look
  /// unordered than really are).
  bool incomplete = false;
  std::vector<std::string> incomplete_reasons;
};

[[nodiscard]] HbGraph buildHbGraph(
    const trace::Collector& c, const std::vector<trace::MessageEdge>& edges);

}  // namespace ovp::analysis
