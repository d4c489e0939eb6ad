// Trace CSV reader — the inverse of writeCsv.
//
// Rebuilds a Collector (records, per-rank end times, drop counters, the
// a-priori transfer table, registered-segment sizes, section names) from the
// v2 CSV export, so the offline analyzer (`ovprof_lint`) can run the same
// cross-rank passes on a file that the in-process path runs on live state.
// Registered segments come back base-less (sizes only): segment ids and
// offsets in the records keep their meaning, but pointer resolution is
// naturally unavailable on a reloaded trace.
//
// The reader is strict about what it understands and lenient about what it
// doesn't: unknown '#' metadata lines are skipped, while a malformed record
// row fails the whole load with a line-numbered error (a trace that cannot
// be trusted should not be silently analyzed).  Beyond the syntax, it
// rejects what the passes behind it cannot replay: a rank or peer outside
// the job; a record or end time, record byte count, or transfer-table size
// or time outside [0, kMaxInputTimeNs]; and a rank's monitor-origin record
// earlier than the one before it.  Sums over the records the replay then
// forms saturate (DESIGN §5.10).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/collector.hpp"

namespace ovp::trace {

struct ReadResult {
  /// Rebuilt collector; null when the load failed.
  std::shared_ptr<Collector> collector;
  /// First parse error ("line N: ..."); empty on success.
  std::string error;
};

[[nodiscard]] ReadResult readCsv(std::istream& is);
[[nodiscard]] ReadResult readCsvFile(const std::string& path);

}  // namespace ovp::trace
