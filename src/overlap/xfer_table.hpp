// A-priori transfer-time table (paper Sec. 2.2 / 3.1).
//
// The bound computation needs xfer_time(size): the physical network time of
// a data transfer of a given size, measured beforehand by a standard
// microbenchmark (the paper used Mellanox's perf_main; this repo's analog is
// bench/calibrate_xfer_table).  The table is read from disk into memory at
// library initialization — the paper notes this one-time cost is paid inside
// MPI_Init — and queried with interpolation at run time.
//
// File format: '#' comments; otherwise two whitespace-separated integers per
// line, "<size_bytes> <time_ns>", sizes strictly increasing.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace ovp::overlap {

class XferTimeTable {
 public:
  XferTimeTable() = default;

  /// A priced lookup plus where the size fell relative to the calibrated
  /// range.  Extrapolated values are estimates, not measurements — reports
  /// count them so a run priced outside its calibration sweep is visible.
  struct Lookup {
    DurationNs time = 0;
    bool below_range = false;  // size below the smallest calibrated point
    bool above_range = false;  // size above the largest calibrated point
    [[nodiscard]] bool extrapolated() const {
      return below_range || above_range;
    }
  };

  /// Adds a calibration point; sizes may be added in any order.
  void add(Bytes size, DurationNs time);

  /// xfer_time for an arbitrary size.  Interior sizes interpolate in
  /// log-log space (calibration sweeps span decades, and transfer time is
  /// near power-law in size; linear interpolation systematically overprices
  /// the inside of wide segments), falling back to linear when an endpoint
  /// time is zero.  Outside the calibrated range the estimate is explicit
  /// extrapolation: the first segment's line below, the last segment's
  /// bandwidth slope above — both flagged in the result.  Every result is
  /// clamped into [0, kMaxInputTimeNs], so no table prices a transfer
  /// outside the range a loaded trace may carry.  Returns 0 for an empty
  /// table or non-positive size.
  [[nodiscard]] Lookup lookupEx(Bytes size) const;

  /// lookupEx without the range flags.
  [[nodiscard]] DurationNs lookup(Bytes size) const {
    return lookupEx(size).time;
  }

  [[nodiscard]] std::size_t points() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  /// i-th calibration point in size order (for serializers).
  [[nodiscard]] std::pair<Bytes, DurationNs> point(std::size_t i) const {
    return {points_[i].size, points_[i].time};
  }

  void save(std::ostream& os) const;
  /// Returns false on any malformed line (table left in valid state with
  /// whatever parsed before the error discarded).
  [[nodiscard]] bool load(std::istream& is);

  [[nodiscard]] bool saveFile(const std::string& path) const;
  [[nodiscard]] bool loadFile(const std::string& path);

 private:
  struct Point {
    Bytes size;
    DurationNs time;
  };
  void sort();
  std::vector<Point> points_;  // kept sorted by size
};

}  // namespace ovp::overlap
