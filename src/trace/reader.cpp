#include "trace/reader.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/strings.hpp"

namespace ovp::trace {

namespace {

/// The largest job a trace may declare or name: the cap the .skel loader
/// applies too.  Per-rank state is sized from it before any record loads.
constexpr std::int64_t kMaxRanks = std::int64_t{1} << 20;

struct Row {
  Record rec;
  std::size_t lineno = 0;
  std::string_view name;  // SectionBegin rows carry the interned section name
};

std::string lineError(std::size_t lineno, const std::string& what) {
  return "line " + std::to_string(lineno) + ": " + what;
}

/// Splits `text` at its commas into at most `max` views of it, the last of
/// which keeps the rest of the line, commas included.  Returns the number
/// of views; fewer than `max` means the line has exactly that many fields.
std::size_t splitFields(std::string_view text, std::string_view* out,
                        std::size_t max) {
  std::size_t n = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size() && n + 1 < max; ++i) {
    if (text[i] == ',') {
      out[n++] = text.substr(start, i - start);
      start = i + 1;
    }
  }
  out[n++] = text.substr(start);
  return n;
}

/// The rest of the stream, read in large blocks (sized up front when the
/// stream can say how much is left).
std::string slurp(std::istream& is) {
  std::string text;
  const std::streampos at = is.tellg();
  if (at != std::streampos(-1)) {
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.clear();
    is.seekg(at);
    if (end != std::streampos(-1) && end > at) {
      text.reserve(static_cast<std::size_t>(end - at));
    }
  }
  std::vector<char> block(std::size_t{1} << 16);
  while (is.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         is.gcount() > 0) {
    text.append(block.data(), static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

}  // namespace

ReadResult readCsv(std::istream& is) {
  ReadResult result;
  // The whole text is read first: every field, section names included, is
  // then a view into it, and the row count is known before any row loads.
  const std::string text = slurp(is);

  std::int64_t declared_ranks = -1;
  std::vector<std::pair<Rank, TimeNs>> end_times;
  std::vector<std::pair<Bytes, DurationNs>> xfer_points;
  std::vector<std::pair<Rank, std::int64_t>> dropped;
  std::vector<std::tuple<Rank, std::int64_t, Bytes>> segments;
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') + 1));
  std::vector<std::pair<std::int64_t, std::size_t>> meta_ranks;  // rank, line
  bool header_seen = false;
  // Every time, transfer size and byte count a trace carries lies in
  // [0, kMaxInputTimeNs].
  const auto uncapped = [&](std::size_t at, const char* what, TimeNs t) {
    if (t >= 0 && t <= kMaxInputTimeNs) return false;
    result.error = lineError(at, std::string(what) + " " + std::to_string(t) +
                                     " outside [0, " +
                                     std::to_string(kMaxInputTimeNs) + "]");
    return true;
  };

  std::size_t lineno = 0;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    const std::string_view line(text.data() + at, eol - at);
    at = eol + 1;
    ++lineno;
    const std::string_view body = util::trim(line);
    if (body.empty()) continue;
    if (body.front() == '#') {
      // Metadata: "# key,v1,v2,...".  Unknown keys and fields past the
      // third value are skipped so newer writers stay readable.
      std::string_view f[5];
      const std::size_t n = splitFields(util::trim(body.substr(1)), f, 5);
      const std::string_view key = util::trim(f[0]);
      std::int64_t a = 0, b = 0, c = 0;
      if (key == "ranks" && n >= 2 && util::parseInt(f[1], a)) {
        if (a <= 0 || a > kMaxRanks) {
          result.error = lineError(lineno, "declared ranks " +
                                               std::to_string(a) +
                                               " outside [1, " +
                                               std::to_string(kMaxRanks) + "]");
          return result;
        }
        declared_ranks = a;
      } else if (key == "end_time" && n >= 3 && util::parseInt(f[1], a) &&
                 util::parseInt(f[2], b)) {
        if (uncapped(lineno, "end time", b)) return result;
        end_times.emplace_back(static_cast<Rank>(a), b);
        meta_ranks.push_back({a, lineno});
      } else if (key == "xfer_point" && n >= 3 && util::parseInt(f[1], a) &&
                 util::parseInt(f[2], b)) {
        if (uncapped(lineno, "xfer_point size", a) ||
            uncapped(lineno, "xfer_point time", b)) {
          return result;
        }
        xfer_points.emplace_back(a, b);
      } else if (key == "dropped" && n >= 3 && util::parseInt(f[1], a) &&
                 util::parseInt(f[2], b)) {
        dropped.emplace_back(static_cast<Rank>(a), b);
        meta_ranks.push_back({a, lineno});
      } else if (key == "segment" && n >= 4 && util::parseInt(f[1], a) &&
                 util::parseInt(f[2], b) && util::parseInt(f[3], c)) {
        segments.emplace_back(static_cast<Rank>(a), b, c);
        meta_ranks.push_back({a, lineno});
      }
      continue;
    }
    if (!header_seen) {
      if (!util::startsWith(body, "rank,")) {
        result.error = lineError(lineno, "expected CSV header row");
        return result;
      }
      header_seen = true;
      continue;
    }
    // rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name — a v1 row has
    // no addr column (10 fields); the name field may itself contain commas,
    // so it is the rest of the row after the last fixed field.
    std::string_view f[11];
    const std::size_t n = splitFields(body, f, 11);
    if (n < 10) {
      result.error = lineError(lineno, "too few fields");
      return result;
    }
    const bool v2 = n == 11;
    Row row;
    std::int64_t rank = 0, peer = 0, tag = 0, aux = 0;
    RecordKind kind = RecordKind::CallEnter;
    if (!util::parseInt(f[0], rank) || !util::parseInt(f[2], row.rec.time) ||
        !util::parseInt(f[4], row.rec.id) || !util::parseInt(f[5], peer) ||
        !util::parseInt(f[6], tag) || !util::parseInt(f[7], row.rec.bytes) ||
        !util::parseInt(f[8], aux) ||
        (v2 && !util::parseInt(f[9], row.rec.addr))) {
      result.error = lineError(lineno, "malformed numeric field");
      return result;
    }
    if (uncapped(lineno, "time", row.rec.time) ||
        uncapped(lineno, "bytes", row.rec.bytes)) {
      return result;
    }
    if (!recordKindFromName(util::trim(f[3]), kind)) {
      result.error = lineError(
          lineno, "unknown record kind '" + std::string(f[3]) + "'");
      return result;
    }
    if (rank != static_cast<Rank>(rank) || peer != static_cast<Rank>(peer)) {
      result.error = lineError(lineno, "rank or peer out of range");
      return result;
    }
    row.rec.kind = kind;
    row.rec.rank = static_cast<Rank>(rank);
    row.rec.peer = static_cast<Rank>(peer);
    row.rec.tag = static_cast<std::int32_t>(tag);
    row.rec.aux = static_cast<std::uint8_t>(aux);
    row.lineno = lineno;
    row.name = f[v2 ? 10 : 9];
    rows.push_back(row);
  }
  if (!header_seen) {
    result.error = "missing CSV header row";
    return result;
  }

  // Without a "# ranks" line the job is as large as the ranks it names, up
  // to the cap: a rank past it is reported below as outside the job.
  std::int64_t nranks = declared_ranks;
  if (nranks < 0) {
    for (const Row& row : rows) {
      nranks = std::max(nranks, std::int64_t{row.rec.rank} + 1);
    }
    for (const auto& [r, at] : meta_ranks) {
      nranks = std::max(nranks, std::min(r, kMaxRanks) + 1);
    }
    nranks = std::min(nranks, kMaxRanks);
  }
  if (nranks <= 0) {
    result.error = "trace names no ranks";
    return result;
  }

  // Every rank and peer indexes per-rank state downstream, so one outside
  // the job fails the load.
  const auto outside = [&](const char* what, std::int64_t v, std::int64_t lo,
                           std::size_t at) {
    if (v >= lo && v < nranks) return false;
    result.error = lineError(at, std::string(what) + " " + std::to_string(v) +
                                     " outside [" + std::to_string(lo) + ", " +
                                     std::to_string(nranks) + ")");
    return true;
  };
  for (const auto& [r, at] : meta_ranks) {
    if (outside("rank", r, 0, at)) return result;
  }
  for (const Row& row : rows) {
    // A send or match names a real endpoint; elsewhere -1 means none/any.
    const bool endpoint = row.rec.kind == RecordKind::SendPost ||
                          row.rec.kind == RecordKind::Match;
    if (outside("rank", row.rec.rank, 0, row.lineno) ||
        outside("peer", row.rec.peer, endpoint ? 0 : -1, row.lineno)) {
      return result;
    }
  }

  // Capacity must hold each rank's retained prefix exactly as exported.
  // The overlap replay folds a rank's monitor-origin records in order, so
  // one earlier than the rank's previous one fails the load; hook and NIC
  // records reach the ring out of order by design.
  std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
  std::vector<TimeNs> monitor_time(static_cast<std::size_t>(nranks), 0);
  for (const Row& row : rows) {
    const auto r = static_cast<std::size_t>(row.rec.rank);
    ++per_rank[r];
    if (!isMonitorOrigin(row.rec.kind)) continue;
    if (row.rec.time < monitor_time[r]) {
      result.error = lineError(
          row.lineno, std::string(recordKindName(row.rec.kind)) + " at " +
                          std::to_string(row.rec.time) +
                          " ns is earlier than rank " +
                          std::to_string(row.rec.rank) +
                          "'s previous monitor record at " +
                          std::to_string(monitor_time[r]) + " ns");
      return result;
    }
    monitor_time[r] = row.rec.time;
  }
  CollectorConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity =
      std::max<std::size_t>(1, *std::max_element(per_rank.begin(),
                                                 per_rank.end()));
  auto collector =
      std::make_shared<Collector>(cfg, static_cast<int>(nranks));

  for (const Row& row : rows) {
    collector->push(row.rec.rank, row.rec);
    if (row.rec.kind == RecordKind::SectionBegin && !row.name.empty()) {
      collector->noteSectionName(row.rec.rank, row.rec.id, row.name);
    }
  }
  for (const auto& [r, t] : end_times) collector->setEndTime(r, t);
  for (const auto& [r, n] : dropped) collector->restoreDropped(r, n);
  if (!xfer_points.empty()) {
    overlap::XferTimeTable table;
    for (const auto& [size, time] : xfer_points) table.add(size, time);
    collector->setTable(table);
  }
  // Segment ids are positional: restore in (owner, id) order.
  std::stable_sort(segments.begin(), segments.end());
  for (const auto& [r, seg, bytes] : segments) {
    collector->restoreSegment(r, bytes);
  }

  result.collector = std::move(collector);
  return result;
}

ReadResult readCsvFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    ReadResult result;
    result.error = "cannot open '" + path + "'";
    return result;
  }
  return readCsv(is);
}

}  // namespace ovp::trace
