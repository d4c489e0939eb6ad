// Fundamental scalar types shared across the ovprof libraries.
//
// All simulated time is integral nanoseconds of *virtual* time.  We use a
// strong-ish alias scheme (distinct names, common integer rep) rather than a
// full unit library to keep hot paths trivially cheap.
#pragma once

#include <cstdint>
#include <limits>

namespace ovp {

/// Virtual time instant, in nanoseconds since simulation start.
using TimeNs = std::int64_t;

/// Virtual time duration, in nanoseconds.
using DurationNs = std::int64_t;

/// Sentinel "never" timestamp.
inline constexpr TimeNs kTimeNever = std::numeric_limits<TimeNs>::max();

/// Cap on any time or size a loader accepts from a file (workload arrivals
/// and estimates; trace record and end times, record byte counts and
/// transfer-table points): 2^50 ns, about 13 days of virtual time.
/// Consumers add and subtract such values, and the cap keeps every
/// difference far inside TimeNs.  Sums over records are not bounded by it:
/// those saturate (satAdd).
inline constexpr TimeNs kMaxInputTimeNs = TimeNs{1} << 50;

/// a + b, saturated to the int64 range.  Sums over a trace's transfers and
/// ranks use it: 2^13 transfers priced at kMaxInputTimeNs already overflow
/// a plain sum, while a live run never comes near the bound.
[[nodiscard]] inline std::int64_t satAdd(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b > 0 ? std::numeric_limits<std::int64_t>::max()
               : std::numeric_limits<std::int64_t>::min();
}

/// Simulated process (rank) index within a job.
using Rank = std::int32_t;

/// Message/transfer sizes in bytes.
using Bytes = std::int64_t;

/// Identifier of one *data transfer operation* (one user message's physical
/// movement), unique per rank.  Matches the PERUSE notion of a message
/// transfer: control packets never get a TransferId.
using TransferId = std::int64_t;

inline constexpr TransferId kInvalidTransfer = -1;

// Convenience duration literals (integer microseconds / milliseconds).
constexpr DurationNs usec(std::int64_t v) { return v * 1000; }
constexpr DurationNs msec(std::int64_t v) { return v * 1000 * 1000; }
constexpr DurationNs sec(std::int64_t v) { return v * 1000 * 1000 * 1000; }

constexpr double toUsec(DurationNs ns) { return static_cast<double>(ns) / 1e3; }
constexpr double toMsec(DurationNs ns) { return static_cast<double>(ns) / 1e6; }

constexpr Bytes KiB(std::int64_t v) { return v * 1024; }
constexpr Bytes MiB(std::int64_t v) { return v * 1024 * 1024; }

}  // namespace ovp
