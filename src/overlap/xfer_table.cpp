#include "overlap/xfer_table.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace ovp::overlap {

namespace {

/// Truncates `v` into [-kMaxInputTimeNs, kMaxInputTimeNs]: a double outside
/// the int64 range has no defined conversion.
DurationNs truncNs(double v) {
  constexpr double kCap = static_cast<double>(kMaxInputTimeNs);
  if (std::isnan(v)) return 0;
  return static_cast<DurationNs>(std::clamp(v, -kCap, kCap));
}

/// A priced transfer time lies in [0, kMaxInputTimeNs], whatever the
/// table's points or extrapolation give (DESIGN §5.10).
DurationNs priced(DurationNs t) {
  return std::clamp<DurationNs>(t, 0, kMaxInputTimeNs);
}

}  // namespace

void XferTimeTable::add(Bytes size, DurationNs time) {
  // Replace an existing point for the same size.
  for (auto& p : points_) {
    if (p.size == size) {
      p.time = time;
      return;
    }
  }
  points_.push_back({size, time});
  sort();
}

void XferTimeTable::sort() {
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) { return a.size < b.size; });
}

XferTimeTable::Lookup XferTimeTable::lookupEx(Bytes size) const {
  Lookup out;
  if (points_.empty() || size <= 0) return out;
  if (points_.size() == 1) {
    // Single point: scale by bandwidth through that point.  Anything other
    // than the point itself is extrapolation.
    const double scale =
        static_cast<double>(size) / static_cast<double>(points_[0].size);
    out.time = priced(truncNs(static_cast<double>(points_[0].time) * scale));
    out.below_range = size < points_[0].size;
    out.above_range = size > points_[0].size;
    return out;
  }
  if (size < points_.front().size) {
    // Below range: extrapolate along the first segment's line (captures the
    // latency floor better than proportional scaling), never negative.
    out.below_range = true;
    const Point& a = points_[0];
    const Point& b = points_[1];
    const double t = static_cast<double>(size - a.size) /
                     static_cast<double>(b.size - a.size);
    const double v = static_cast<double>(a.time) +
                     t * static_cast<double>(b.time - a.time);
    out.time = priced(truncNs(v));
    return out;
  }
  if (size > points_.back().size) {
    // Above range: extrapolate with the bandwidth of the last segment.
    out.above_range = true;
    const Point& a = points_[points_.size() - 2];
    const Point& b = points_.back();
    const double slope = static_cast<double>(b.time - a.time) /
                         static_cast<double>(b.size - a.size);
    out.time = priced(satAdd(
        b.time, truncNs(slope * static_cast<double>(size - b.size))));
    return out;
  }
  const auto hi = std::lower_bound(
      points_.begin(), points_.end(), size,
      [](const Point& p, Bytes s) { return p.size < s; });
  if (hi->size == size) {
    out.time = priced(hi->time);
    return out;
  }
  const auto lo = hi - 1;
  if (lo->time > 0 && hi->time > 0) {
    // Interior: interpolate in log-log space.  Exact for power laws
    // t = c * s^k, which is what a calibration sweep over decades of sizes
    // looks like piecewise.
    const double lt = std::log(static_cast<double>(lo->time));
    const double ht = std::log(static_cast<double>(hi->time));
    const double ls = std::log(static_cast<double>(lo->size));
    const double hs = std::log(static_cast<double>(hi->size));
    const double t = (std::log(static_cast<double>(size)) - ls) / (hs - ls);
    const double v = std::exp(lt + t * (ht - lt));
    out.time = priced(
        std::llround(std::min(v, static_cast<double>(kMaxInputTimeNs))));
    return out;
  }
  // A zero-time endpoint has no logarithm; fall back to linear.
  const double t = static_cast<double>(size - lo->size) /
                   static_cast<double>(hi->size - lo->size);
  out.time = priced(
      lo->time + truncNs(t * static_cast<double>(hi->time - lo->time)));
  return out;
}

void XferTimeTable::save(std::ostream& os) const {
  os << "# ovprof transfer-time table: <size_bytes> <time_ns>\n";
  for (const Point& p : points_) {
    os << p.size << ' ' << p.time << '\n';
  }
}

bool XferTimeTable::load(std::istream& is) {
  std::vector<Point> parsed;
  std::string line;
  while (std::getline(is, line)) {
    const std::string_view body = util::trim(line);
    if (body.empty() || body.front() == '#') continue;
    std::istringstream fields{std::string(body)};
    long long size = 0, time = 0;
    if (!(fields >> size >> time) || size <= 0 || time < 0) return false;
    std::string extra;
    if (fields >> extra) return false;
    parsed.push_back({size, time});
  }
  points_ = std::move(parsed);
  sort();
  return true;
}

bool XferTimeTable::saveFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  save(os);
  return static_cast<bool>(os);
}

bool XferTimeTable::loadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  return load(is);
}

}  // namespace ovp::overlap
