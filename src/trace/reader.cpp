#include "trace/reader.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <tuple>
#include <vector>

#include "util/strings.hpp"

namespace ovp::trace {

namespace {

struct Row {
  Record rec;
  std::string name;  // SectionBegin rows carry the interned section name
  std::size_t lineno = 0;
};

std::string lineError(std::size_t lineno, const std::string& what) {
  return "line " + std::to_string(lineno) + ": " + what;
}

bool parseField(const std::string& f, std::int64_t& out) {
  return util::parseInt(util::trim(f), out);
}

}  // namespace

ReadResult readCsv(std::istream& is) {
  ReadResult result;

  std::int64_t declared_ranks = -1;
  std::vector<std::pair<Rank, TimeNs>> end_times;
  std::vector<std::pair<Bytes, DurationNs>> xfer_points;
  std::vector<std::pair<Rank, std::int64_t>> dropped;
  std::vector<std::tuple<Rank, std::int64_t, Bytes>> segments;
  std::vector<Row> rows;
  std::vector<std::pair<std::int64_t, std::size_t>> meta_ranks;  // rank, line
  bool header_seen = false;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view body = util::trim(line);
    if (body.empty()) continue;
    if (body.front() == '#') {
      // Metadata: "# key,v1,v2,...".  Unknown keys are skipped so newer
      // writers stay readable.
      const std::vector<std::string> f =
          util::split(util::trim(body.substr(1)), ',');
      if (f.empty()) continue;
      const std::string_view key = util::trim(f[0]);
      std::int64_t a = 0, b = 0, c = 0;
      if (key == "ranks" && f.size() >= 2 && parseField(f[1], a)) {
        declared_ranks = a;
      } else if (key == "end_time" && f.size() >= 3 && parseField(f[1], a) &&
                 parseField(f[2], b)) {
        end_times.emplace_back(static_cast<Rank>(a), b);
        meta_ranks.push_back({a, lineno});
      } else if (key == "xfer_point" && f.size() >= 3 && parseField(f[1], a) &&
                 parseField(f[2], b)) {
        xfer_points.emplace_back(a, b);
      } else if (key == "dropped" && f.size() >= 3 && parseField(f[1], a) &&
                 parseField(f[2], b)) {
        dropped.emplace_back(static_cast<Rank>(a), b);
        meta_ranks.push_back({a, lineno});
      } else if (key == "segment" && f.size() >= 4 && parseField(f[1], a) &&
                 parseField(f[2], b) && parseField(f[3], c)) {
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
    // no addr column (10 fields); the name field may itself contain commas.
    std::vector<std::string> f = util::split(body, ',');
    if (f.size() < 10) {
      result.error = lineError(lineno, "too few fields");
      return result;
    }
    const bool v2 = f.size() >= 11;
    const std::size_t name_at = v2 ? 10 : 9;
    std::string name = f[name_at];
    for (std::size_t i = name_at + 1; i < f.size(); ++i) {
      name += ',';
      name += f[i];
    }
    Row row;
    std::int64_t rank = 0, peer = 0, tag = 0, aux = 0;
    RecordKind kind = RecordKind::CallEnter;
    if (!parseField(f[0], rank) || !parseField(f[2], row.rec.time) ||
        !parseField(f[4], row.rec.id) || !parseField(f[5], peer) ||
        !parseField(f[6], tag) || !parseField(f[7], row.rec.bytes) ||
        !parseField(f[8], aux) ||
        (v2 && !parseField(f[9], row.rec.addr))) {
      result.error = lineError(lineno, "malformed numeric field");
      return result;
    }
    if (!recordKindFromName(util::trim(f[3]), kind)) {
      result.error = lineError(lineno, "unknown record kind '" + f[3] + "'");
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
    row.name = std::move(name);
    row.lineno = lineno;
    rows.push_back(std::move(row));
  }
  if (!header_seen) {
    result.error = "missing CSV header row";
    return result;
  }

  // Without a "# ranks" line the job is as large as the ranks it names.
  std::int64_t nranks = declared_ranks;
  if (nranks < 0) {
    for (const Row& row : rows) {
      nranks = std::max<std::int64_t>(nranks, row.rec.rank + 1);
    }
    for (const auto& [r, at] : meta_ranks) {
      nranks = std::max<std::int64_t>(nranks, r + 1);
    }
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
  std::vector<std::size_t> per_rank(static_cast<std::size_t>(nranks), 0);
  for (const Row& row : rows) {
    ++per_rank[static_cast<std::size_t>(row.rec.rank)];
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
