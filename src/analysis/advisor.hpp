// Overlap advisor: schedule anti-patterns the paper's bounds make
// quantifiable, each with an estimated recoverable overlap from the
// a-priori transfer table (xfer_time(size), the same table the runtime
// bounds use) and a fix-it hint.  It is a sink of trace::replayRank, so it
// sees each transfer exactly as the Processor priced it: the same "same
// call" test, the same xfer_time.  Only transfers with both stamps seen are
// advised on.
//
// All findings are Note severity on purpose: an anti-pattern costs
// performance, not correctness, and a clean-run gate (exit code, CI) must
// not trip on advice.  Ranking still surfaces the biggest wins first via
// the per-finding gain estimate.
//
// Heuristics (T = xfer_time(bytes), per transfer):
//   * SERIALIZED_TRANSFER — XFER_BEGIN and XFER_END inside the same library
//     call: the transfer was fully synchronous, nothing could overlap.
//     Recoverable gain ~= min(T, time spent in the call after BEGIN) if the
//     operation were split into post + wait with computation between.
//   * EARLY_WAIT — the completing call blocked for at least a quarter of T
//     (and above an absolute floor): the wait was entered while most of the
//     wire time was still ahead.  Gain = the blocked span; moving
//     computation before the wait reclaims it.
//   * LATE_WAIT — the transfer was retired at least 2T after it began while
//     blocking almost nothing: the wire finished long before anyone looked.
//     Gain 0 (overlap was achieved); reported because the slack means the
//     completion could be consumed earlier, e.g. to free the buffer.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "trace/collector.hpp"

namespace ovp::analysis {

[[nodiscard]] std::vector<Diagnostic> adviseOverlap(const trace::Collector& c);

}  // namespace ovp::analysis
