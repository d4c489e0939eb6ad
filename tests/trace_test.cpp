// Tests for src/trace/: ring drop accounting, golden Chrome-JSON/CSV
// exports, JSON well-formedness, the Chrome compute and call tracks against
// the reports, exact window/report reconciliation, bit-identical reruns,
// the CSV reader's rank/peer/time validation, round trip and mutation fuzz,
// cross-rank matching and the critical path, the library's CALL and MATCH
// records as an outside tool sees them, and the --ovprof-* flag validation
// that fronts it all.
//
// To regenerate the golden exports after an intentional format change:
//   OVPROF_REGOLD=1 ./build/tests/trace_test
// then commit the updated files under tests/golden/.
#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "golden.hpp"
#include "line_mutator.hpp"
#include "model/predict.hpp"
#include "mpi/machine.hpp"
#include "nas/bt.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/sp.hpp"
#include "net/fault.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/reader.hpp"
#include "trace/ring.hpp"
#include "trace/timeline.hpp"
#include "util/flags.hpp"

namespace ovp {
namespace {

// ---------------------------------------------------------------- helpers

/// Minimal recursive-descent JSON checker: accepts exactly the RFC 8259
/// grammar (objects, arrays, strings with escapes, numbers, true/false/
/// null) and rejects trailing garbage.  No values are built — this only
/// answers "would a real parser load it?".
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}
  [[nodiscard]] bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Fixed 2-rank workload exercising sections, both size classes, an eager
/// (case 3) path, and a run-long traced timeline.  Returns the Machine so
/// tests can reach both the reports and the collector.
mpi::JobConfig tracedConfig() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = mpi::Preset::OpenMpiPipelined;
  cfg.mpi.monitor.classes = overlap::SizeClasses::shortLong(16 * 1024);
  cfg.trace.enabled = true;
  return cfg;
}

void tracedWorkload(mpi::Mpi& mpi) {
  static const std::vector<Bytes> sizes = {256, 4096, 64 * 1024, 512 * 1024};
  std::vector<std::uint8_t> buf(512 * 1024, 7);
  mpi.sectionBegin("outer");
  for (const Bytes size : sizes) {
    mpi.sectionBegin("exchange");
    if (mpi.rank() == 0) {
      mpi::Request req = mpi.isend(buf.data(), size, 1, 0);
      mpi.compute(150'000);
      mpi.wait(req);
      mpi.recv(buf.data(), 64, 1, 1);
    } else {
      mpi::Request req = mpi.irecv(buf.data(), size, 0, 0);
      mpi.compute(60'000);
      mpi.wait(req);
      mpi.send(buf.data(), 64, 0, 1);
    }
    mpi.sectionEnd();
  }
  mpi.sectionEnd();
}

// ------------------------------------------------------------------- ring

TEST(TraceRing, KeepsOldestPrefixAndCountsDrops) {
  trace::TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    trace::Record rec;
    rec.kind = trace::RecordKind::SendPost;
    rec.time = i;
    ring.push(rec);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  // Keep-oldest: the retained records are an exact prefix of the stream,
  // which is what lets the timeline replay share the Processor's state
  // machine without resynchronisation.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).time, static_cast<TimeNs>(i));
  }
}

TEST(TraceRing, DroppedRecordsUndershootReconciliation) {
  mpi::JobConfig cfg = tracedConfig();
  cfg.trace.ring_capacity = 32;  // force overflow
  mpi::Machine machine(cfg);
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  EXPECT_GT(tc.droppedTotal(), 0);
  const auto per_rank = trace::analyzeAllWindows(tc, msec(1));
  for (const trace::RankWindows& rw : per_rank) {
    EXPECT_GT(rw.dropped, 0);
    const overlap::OverlapAccum& whole =
        machine.reports()[static_cast<std::size_t>(rw.rank)].whole.total;
    EXPECT_LE(rw.total.transfers, whole.transfers);
    EXPECT_LE(rw.total.data_transfer_time, whole.data_transfer_time);
  }
}

// ---------------------------------------------------------------- exports

TEST(TraceExport, GoldenChromeJson) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeChromeJson(*machine.traceCollector(), os);
  compareOrRegold("trace_workload.json", os.str());
}

TEST(TraceExport, GoldenCsv) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeCsv(*machine.traceCollector(), os);
  compareOrRegold("trace_workload.csv", os.str());
}

TEST(TraceExport, JsonIsWellFormedAndCarriesSchema) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeChromeJson(*machine.traceCollector(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << "not RFC 8259 JSON";
  // Chrome trace-event schema essentials a viewer needs.
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exchange\""), std::string::npos);  // section
}

TEST(TraceExport, CsvIsLossless) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  std::ostringstream os;
  trace::writeCsv(tc, os);
  // One header plus exactly one line per retained record ('#' lines are
  // the v2 metadata block: format version, ranks, end times, xfer table,
  // drop counters, segments).
  std::int64_t lines = -1;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    if (!line.empty() && line[0] == '#') continue;
    ++lines;
  }
  std::int64_t retained = 0;
  for (Rank r = 0; r < tc.nranks(); ++r) {
    retained += static_cast<std::int64_t>(tc.ring(r).size());
  }
  EXPECT_EQ(lines, retained);
}

TEST(TraceExport, RerunsAreBitIdentical) {
  auto once = [] {
    mpi::Machine machine(tracedConfig());
    machine.run(tracedWorkload);
    std::ostringstream json, csv;
    trace::writeChromeJson(*machine.traceCollector(), json);
    trace::writeCsv(*machine.traceCollector(), csv);
    return json.str() + "\x1e" + csv.str();
  };
  EXPECT_EQ(once(), once());
}

/// One complete ("X") span of a Chrome export.  The export writes
/// microseconds with three decimals, so these nanoseconds are exact.
struct Span {
  int pid = -1;
  TimeNs ts = 0;
  DurationNs dur = 0;
};

/// Every complete span named `name` in `json`, in file order.
std::vector<Span> spansNamed(const std::string& json, std::string_view name) {
  const auto nanos = [](const std::string& line, std::string_view key) {
    const std::size_t at = line.find(key) + key.size();
    const std::size_t dot = line.find('.', at);
    return std::stoll(line.substr(at, dot - at)) * 1000 +
           std::stoll(line.substr(dot + 1, 3));
  };
  const std::string head =
      "{\"name\":\"" + std::string(name) + "\",\"ph\":\"X\"";
  std::vector<Span> out;
  std::istringstream is(json);
  for (std::string line; std::getline(is, line);) {
    if (line.find(head) == std::string::npos) continue;
    out.push_back({std::stoi(line.substr(line.find("\"pid\":") + 6)),
                   nanos(line, "\"ts\":"), nanos(line, "\"dur\":")});
  }
  return out;
}

// The compute track starts where the report's computation time does, at
// the first monitor record, not at the first call; disabled time before
// that call splits it.
TEST(TraceExport, ComputeBeforeTheFirstCallIsDrawn) {
  trace::CollectorConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 16;
  trace::Collector c(cfg, 1);
  const auto push = [&](trace::RecordKind kind, TimeNs t) {
    trace::Record rec;
    rec.kind = kind;
    rec.rank = 0;
    rec.time = t;
    c.push(0, rec);
  };
  push(trace::RecordKind::SectionBegin, 0);
  push(trace::RecordKind::Disable, 10);
  push(trace::RecordKind::Enable, 20);
  push(trace::RecordKind::CallEnter, 30);
  push(trace::RecordKind::CallExit, 100);
  c.setEndTime(0, 200);
  std::ostringstream os;
  trace::writeChromeJson(c, os);
  const std::vector<Span> compute = spansNamed(os.str(), "compute");
  ASSERT_EQ(compute.size(), 3u) << os.str();
  EXPECT_EQ(compute[0].ts, 0);
  EXPECT_EQ(compute[0].dur, 10);
  EXPECT_EQ(compute[1].ts, 20);
  EXPECT_EQ(compute[1].dur, 10);
  EXPECT_EQ(compute[2].ts, 100);
  EXPECT_EQ(compute[2].dur, 100);
}

// Over real kernels, each rank's compute and comm-call tracks sum to its
// report's computation and call time.  A rank whose last ring record
// (a NIC completion, say) trails its end time is skipped: the export runs
// its tracks to that record, the report stops at the end time.
TEST(TraceExport, TrackTotalsMatchTheReports) {
  const auto traced = [](nas::NasParams& p) {
    p.cls = nas::Class::S;
    p.nranks = 4;
    p.trace.enabled = true;
  };
  nas::NasParams base;
  traced(base);
  nas::SpParams sp;
  traced(sp);
  std::vector<std::pair<std::string, nas::NasResult>> runs;
  runs.emplace_back("bt", nas::runBt(base));
  runs.emplace_back("cg", nas::runCg(base));
  runs.emplace_back("ep", nas::runEp(base));
  runs.emplace_back("ft", nas::runFt(base));
  runs.emplace_back("is", nas::runIs(base));
  runs.emplace_back("lu", nas::runLu(base));
  runs.emplace_back("sp", nas::runSp(sp));
  for (const nas::MgVariant v :
       {nas::MgVariant::MpiBlocking, nas::MgVariant::ArmciBlocking,
        nas::MgVariant::ArmciNonBlocking}) {
    nas::MgParams mg;
    traced(mg);
    mg.variant = v;
    runs.emplace_back(std::string("mg ") + nas::mgVariantName(v),
                      nas::runMg(mg));
  }
  int checked = 0;
  for (const auto& [name, r] : runs) {
    ASSERT_TRUE(r.verified) << name;
    ASSERT_NE(r.trace, nullptr) << name;
    const trace::Collector& tc = *r.trace;
    std::ostringstream os;
    trace::writeChromeJson(tc, os);
    std::vector<DurationNs> compute(r.reports.size(), 0);
    std::vector<DurationNs> calls(r.reports.size(), 0);
    for (const Span& s : spansNamed(os.str(), "compute")) {
      compute[static_cast<std::size_t>(s.pid)] += s.dur;
    }
    for (const Span& s : spansNamed(os.str(), "comm-call")) {
      calls[static_cast<std::size_t>(s.pid)] += s.dur;
    }
    for (Rank rank = 0; rank < tc.nranks(); ++rank) {
      const trace::TraceRing& ring = tc.ring(rank);
      ASSERT_EQ(ring.dropped(), 0) << name;
      if (ring.at(ring.size() - 1).time > tc.endTime(rank)) continue;
      const auto i = static_cast<std::size_t>(rank);
      EXPECT_EQ(compute[i], r.reports[i].whole.computation_time)
          << name << " rank " << rank;
      EXPECT_EQ(calls[i], r.reports[i].whole.communication_call_time)
          << name << " rank " << rank;
      ++checked;
    }
  }
  EXPECT_GE(checked, 20);  // 24 of the 40 ranks at this writing
}

// ---------------------------------------------------------- CSV reader

/// The traced workload's CSV export, one string per line.
std::vector<std::string> tracedCsvLines() {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  std::ostringstream os;
  trace::writeCsv(*machine.traceCollector(), os);
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string readError(const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (const std::string& line : lines) os << line << '\n';
  std::istringstream is(os.str());
  const trace::ReadResult r = trace::readCsv(is);
  EXPECT_EQ(r.collector == nullptr, !r.error.empty());
  return r.error;
}

// Each malformed rank or peer below would index per-rank state out of
// bounds in the reader or in the cross-rank passes behind it.
TEST(TraceReader, RejectsRowRankOutsideTheJob) {
  std::vector<std::string> lines = tracedCsvLines();
  std::size_t row = 0;
  while (lines[row].rfind("rank,", 0) != 0) ++row;
  ++row;  // first record after the header
  ASSERT_EQ(lines[row].rfind("0,", 0), 0u);
  lines[row] = "-1" + lines[row].substr(1);
  EXPECT_EQ(readError(lines), "line " + std::to_string(row + 1) +
                                  ": rank -1 outside [0, 2)");
}

TEST(TraceReader, RejectsMetadataRankOutsideTheJob) {
  std::vector<std::string> lines = tracedCsvLines();
  lines.push_back("# end_time,-1,5");
  EXPECT_EQ(readError(lines), "line " + std::to_string(lines.size()) +
                                  ": rank -1 outside [0, 2)");
  lines.back() = "# dropped,2,1";
  EXPECT_EQ(readError(lines), "line " + std::to_string(lines.size()) +
                                  ": rank 2 outside [0, 2)");
}

TEST(TraceReader, RejectsSendOrMatchPeerOutsideTheJob) {
  std::vector<std::string> lines = tracedCsvLines();
  const std::string at = "line " + std::to_string(lines.size() + 1) + ": ";
  lines.push_back("0,999,1,SEND_POST,1,9,0,8,0,0,");
  EXPECT_EQ(readError(lines), at + "peer 9 outside [0, 2)");
  lines.back() = "1,999,1,MATCH,1,-1,0,8,0,0,";
  EXPECT_EQ(readError(lines), at + "peer -1 outside [0, 2)");
}

TEST(TraceReader, OtherPeersMayBeNoneButNotOutsideTheJob) {
  std::vector<std::string> lines = tracedCsvLines();
  lines.push_back("1,999,1,RECV_POST,1,-1,0,8,0,0,");  // any source
  EXPECT_EQ(readError(lines), "");
  lines.back() = "1,999,1,NIC_POST,1,2,0,8,0,0,";
  EXPECT_EQ(readError(lines), "line " + std::to_string(lines.size()) +
                                  ": peer 2 outside [-1, 2)");
  lines.back() = "1,999,1,FENCE,1,-2,0,0,0,0,";
  EXPECT_EQ(readError(lines), "line " + std::to_string(lines.size()) +
                                  ": peer -2 outside [-1, 2)");
}

// A declared job size is trusted to size per-rank state before any record
// loads, so it is bounded like the .skel loader's: [1, 2^20].
TEST(TraceReader, RejectsDeclaredRanksOutsideTheCap) {
  const std::string header =
      "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name";
  for (const std::string value :
       {"9223372036854775807", "1048577", "0", "-3"}) {
    EXPECT_EQ(readError({"# ovprof-trace-csv,2", "# ranks," + value, header}),
              "line 2: declared ranks " + value + " outside [1, 1048576]");
  }
  EXPECT_EQ(readError({"# ranks,1", header, "0,0,1,BARRIER,1,-1,0,0,0,-1,"}),
            "");
}

// Without a "# ranks" line the job is as large as the ranks it names, up to
// the same cap.
TEST(TraceReader, RejectsNamedRanksPastTheCap) {
  const std::string header =
      "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name";
  EXPECT_EQ(readError({header, "2147483647,0,1,BARRIER,1,-1,0,0,0,-1,"}),
            "line 2: rank 2147483647 outside [0, 1048576)");
  EXPECT_EQ(readError({"# end_time,9223372036854775807,5", header}),
            "line 1: rank 9223372036854775807 outside [0, 1048576)");
}

// The overlap replay folds each rank's monitor-origin records (CALL_ENTER
// ... ENABLE) in time order, so one earlier than the rank's previous one
// fails the load.  Hook and NIC records reach the ring out of order by
// design and stay unchecked.
TEST(TraceReader, RejectsMonitorRecordsOutOfTimeOrder) {
  std::vector<std::string> lines = tracedCsvLines();
  const auto field = [](const std::string& line, int k) {
    std::size_t at = 0;
    for (int i = 0; i < k; ++i) at = line.find(',', at) + 1;
    return line.substr(at, line.find(',', at) - at);
  };
  std::size_t row = 0;
  while (lines[row].rfind("rank,", 0) != 0) ++row;
  std::string previous;  // time of rank 0's last monitor-origin record
  for (++row; row < lines.size(); ++row) {
    if (field(lines[row], 0) != "0") continue;
    const std::string kind = field(lines[row], 3);
    if (kind == "CALL_EXIT" && !previous.empty() &&
        std::stoll(previous) >= 5000) {
      break;
    }
    trace::RecordKind k{};
    ASSERT_TRUE(trace::recordKindFromName(kind, k)) << kind;
    if (trace::isMonitorOrigin(k)) previous = field(lines[row], 2);
  }
  ASSERT_LT(row, lines.size());
  const std::string original = lines[row];
  const std::string time = std::to_string(std::stoll(previous) - 5000);
  const std::size_t at = original.find(',', original.find(',') + 1) + 1;
  lines[row].replace(at, original.find(',', at) - at, time);
  EXPECT_EQ(readError(lines), "line " + std::to_string(row + 1) +
                                  ": CALL_EXIT at " + time +
                                  " ns is earlier than rank 0's previous "
                                  "monitor record at " + previous + " ns");
  // A hook record earlier than everything ahead of it stays accepted.
  lines[row] = original;
  lines.push_back("0,999,0,RECV_POST,1,-1,0,8,0,0,");
  EXPECT_EQ(readError(lines), "");
}

// Every time a trace carries, record or end time, lies in [0, 2^50] ns:
// the replay's integrals and the window grid then stay far inside TimeNs.
TEST(TraceReader, RejectsTimesOutsideTheCap) {
  const std::string cap = std::to_string(kMaxInputTimeNs);
  std::vector<std::string> lines = tracedCsvLines();
  const std::string at = "line " + std::to_string(lines.size() + 1) + ": ";
  lines.push_back("# end_time,0,4611686018427387904");
  EXPECT_EQ(readError(lines),
            at + "end time 4611686018427387904 outside [0, " + cap + "]");
  lines.back() = "# end_time,1," + cap;
  EXPECT_EQ(readError(lines), "");
  lines.back() = "1,999,-1,RECV_POST,1,-1,0,8,0,0,";
  EXPECT_EQ(readError(lines), at + "time -1 outside [0, " + cap + "]");
  lines.back() = "1,999," + std::to_string(kMaxInputTimeNs + 1) +
                 ",NIC_TIMEOUT,1,-1,0,0,0,-1,";
  EXPECT_EQ(readError(lines), at + "time " +
                                  std::to_string(kMaxInputTimeNs + 1) +
                                  " outside [0, " + cap + "]");
  lines.back() = "1,999," + cap + ",NIC_TIMEOUT,1,-1,0,0,0,-1,";
  EXPECT_EQ(readError(lines), "");
}

// Transfer-table points and record byte counts are bounded like times.  A
// trace whose 1-64 KiB points sat at 2^63-1 ns made the what-if replay
// overflow its transfer-time sums.
TEST(TraceReader, RejectsSizesAndTablePointsOutsideTheCap) {
  const std::string cap = std::to_string(kMaxInputTimeNs);
  const std::string past = std::to_string(kMaxInputTimeNs + 1);
  const std::string max =
      std::to_string(std::numeric_limits<std::int64_t>::max());
  std::vector<std::string> lines = tracedCsvLines();
  std::size_t row = 0;
  while (lines[row].rfind("# xfer_point,1024,", 0) != 0) ++row;
  const std::string at = "line " + std::to_string(row + 1) + ": ";
  lines[row] = "# xfer_point,1024," + max;
  EXPECT_EQ(readError(lines),
            at + "xfer_point time " + max + " outside [0, " + cap + "]");
  lines[row] = "# xfer_point," + past + ",5";
  EXPECT_EQ(readError(lines),
            at + "xfer_point size " + past + " outside [0, " + cap + "]");
  lines[row] = "# xfer_point,1024," + cap;
  EXPECT_EQ(readError(lines), "");
  const std::string last = "line " + std::to_string(lines.size() + 1) + ": ";
  lines.push_back("1,999,1,RECV_POST,1,-1,0," + past + ",0,0,");
  EXPECT_EQ(readError(lines),
            last + "bytes " + past + " outside [0, " + cap + "]");
  lines.back() = "1,999,1,RECV_POST,1,-1,0," + cap + ",0,0,";
  EXPECT_EQ(readError(lines), "");
}

std::shared_ptr<trace::Collector> loadLines(
    const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (const std::string& line : lines) os << line << '\n';
  std::istringstream is(os.str());
  trace::ReadResult r = trace::readCsv(is);
  EXPECT_EQ(r.error, "");
  return r.collector;
}

// Pricing saturates instead of overflowing (DESIGN 5.10): table points at
// the cap, scaled further by whatif, and 2^13 transfers priced at 2^50 ns
// each, whose plain sum is 2^63.
TEST(TraceReader, PricingAtTheCapSaturates) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::string cap = std::to_string(kMaxInputTimeNs);
  std::vector<std::string> lines = tracedCsvLines();
  for (std::string& line : lines) {
    for (Bytes size = 1024; size <= 65536; size *= 2) {
      const std::string key = "# xfer_point," + std::to_string(size) + ",";
      if (line.rfind(key, 0) == 0) line = key + cap;
    }
  }
  const auto points = loadLines(lines);
  ASSERT_NE(points, nullptr);
  model::WhatIfConfig scaled;
  scaled.xfer_scale = 1e300;
  model::WhatIfConfig narrow;
  narrow.bandwidth_scale = 1e-300;
  narrow.latency_delta = kMaxInputTimeNs;
  for (const model::WhatIfConfig& cfg :
       {model::WhatIfConfig{}, scaled, narrow}) {
    const model::WhatIfResult r = model::whatIf(*points, cfg);
    for (const model::WhatIfTotals* t : {&r.baseline, &r.scenario}) {
      EXPECT_GE(t->accum.min_overlapped, 0);
      EXPECT_LE(t->accum.min_overlapped, t->accum.max_overlapped);
      EXPECT_LE(t->accum.max_overlapped, t->accum.data_transfer_time);
    }
  }
  (void)analysis::runLint(*points);

  lines = {"# ranks,1", "# end_time,0," + cap, "# xfer_point,8," + cap,
           "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name"};
  constexpr int kTransfers = 1 << 13;
  for (int i = 0; i < kTransfers; ++i) {
    const std::string n = std::to_string(i);
    lines.push_back("0," + n + "," + n + ",XFER_END,-1,-1,0,8,0,-1,");
  }
  const auto many = loadLines(lines);
  ASSERT_NE(many, nullptr);
  const model::WhatIfResult r = model::whatIf(*many, model::WhatIfConfig{});
  EXPECT_EQ(r.baseline.accum.transfers, kTransfers);
  EXPECT_EQ(r.baseline.accum.data_transfer_time, kMax);
  EXPECT_EQ(r.baseline.accum.max_overlapped, kMax);
  EXPECT_EQ(r.baseline.accum.min_overlapped, 0);
  (void)analysis::runLint(*many);
}

// Live collector -> CSV -> readCsv -> CSV and Chrome JSON: the reloaded
// exports are the live ones byte for byte.  Lossy one-sided MG carries
// retransmit, timeout and RMA records; a section name with a comma checks
// that the name stays the rest of its row.
TEST(TraceReader, LossyArmciRoundTripIsByteIdentical) {
  nas::MgParams p;
  p.cls = nas::Class::S;
  p.nranks = 4;
  p.variant = nas::MgVariant::ArmciNonBlocking;
  ASSERT_TRUE(net::FaultModel::parse("drop=0.05,seed=3", p.fabric.fault));
  p.trace.enabled = true;
  const nas::NasResult run = nas::runMg(p);
  ASSERT_TRUE(run.verified);
  ASSERT_NE(run.trace, nullptr);
  trace::Collector& live = *run.trace;

  constexpr std::int64_t kSection = 77;
  ASSERT_TRUE(live.sectionName(0, kSection).empty());
  const TimeNs t = live.ring(0).at(live.ring(0).size() - 1).time;
  trace::Record rec;
  rec.rank = 0;
  rec.time = t;
  rec.id = kSection;
  rec.kind = trace::RecordKind::SectionBegin;
  live.push(0, rec);
  live.noteSectionName(0, kSection, "halo, west");
  rec.kind = trace::RecordKind::SectionEnd;
  live.push(0, rec);

  std::ostringstream csv, json;
  trace::writeCsv(live, csv);
  trace::writeChromeJson(live, json);
  for (const char* kind : {"NIC_RETRANSMIT", "NIC_TIMEOUT", "RMA_PUT",
                           "RMA_COMPLETE", ",halo, west\n"}) {
    EXPECT_NE(csv.str().find(kind), std::string::npos) << kind;
  }

  std::istringstream in(csv.str());
  const trace::ReadResult loaded = trace::readCsv(in);
  ASSERT_NE(loaded.collector, nullptr) << loaded.error;
  std::ostringstream csv2, json2;
  trace::writeCsv(*loaded.collector, csv2);
  trace::writeChromeJson(*loaded.collector, json2);
  EXPECT_TRUE(csv2.str() == csv.str()) << "CSV round trip drifted";
  EXPECT_TRUE(json2.str() == json.str()) << "Chrome JSON round trip drifted";
}

// Seeded line mutants of a valid trace: the reader never crashes, reports
// an error exactly when it returns no collector, what it accepts exports to
// a CSV it reads back unchanged, and the offline passes behind it (lint and
// the what-if replay) run on every accepted mutant.
TEST(TraceReader, MutatedLinesNeverCrash) {
  const std::vector<std::string> lines = tracedCsvLines();
  int loaded = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::ostringstream text;
    for (const std::string& line : fuzz::mutateLines(lines, seed, ',')) {
      text << line << '\n';
    }
    std::istringstream in(text.str());
    const trace::ReadResult r = trace::readCsv(in);
    ASSERT_EQ(r.collector == nullptr, !r.error.empty()) << "seed " << seed;
    if (r.collector == nullptr) continue;
    ++loaded;
    std::ostringstream once;
    trace::writeCsv(*r.collector, once);
    std::istringstream again(once.str());
    const trace::ReadResult r2 = trace::readCsv(again);
    ASSERT_NE(r2.collector, nullptr) << "seed " << seed << ": " << r2.error;
    std::ostringstream twice;
    trace::writeCsv(*r2.collector, twice);
    EXPECT_TRUE(once.str() == twice.str()) << "seed " << seed;
    (void)analysis::runLint(*r.collector);
    (void)model::whatIf(*r.collector, model::WhatIfConfig{});
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 400);
}

// --------------------------------------------------------- reconciliation

TEST(TraceTimeline, WindowSumsMatchReportExactly) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  for (const DurationNs window : {usec(50), usec(333), msec(1), msec(100)}) {
    const auto per_rank = trace::analyzeAllWindows(tc, window);
    ASSERT_EQ(per_rank.size(), machine.reports().size());
    for (const trace::RankWindows& rw : per_rank) {
      ASSERT_EQ(rw.dropped, 0);
      const overlap::Report& rep =
          machine.reports()[static_cast<std::size_t>(rw.rank)];
      // Whole-run totals rebuilt from the replay...
      EXPECT_EQ(rw.total.transfers, rep.whole.total.transfers);
      EXPECT_EQ(rw.total.bytes, rep.whole.total.bytes);
      EXPECT_EQ(rw.total.data_transfer_time,
                rep.whole.total.data_transfer_time);
      EXPECT_EQ(rw.total.min_overlapped, rep.whole.total.min_overlapped);
      EXPECT_EQ(rw.total.max_overlapped, rep.whole.total.max_overlapped);
      EXPECT_EQ(rw.comm_total, rep.whole.communication_call_time);
      EXPECT_EQ(rw.comp_total, rep.whole.computation_time);
      // ...and the per-window pieces sum to those totals without rounding
      // loss (exact integer attribution).
      trace::WindowStats sum;
      for (const trace::WindowStats& w : rw.windows) sum += w;
      EXPECT_EQ(sum.transfers, rw.total.transfers);
      EXPECT_EQ(sum.bytes, rw.total.bytes);
      EXPECT_EQ(sum.data_transfer_time, rw.total.data_transfer_time);
      EXPECT_EQ(sum.min_overlap, rw.total.min_overlapped);
      EXPECT_EQ(sum.max_overlap, rw.total.max_overlapped);
      EXPECT_EQ(sum.comm_time, rw.comm_total);
      EXPECT_EQ(sum.comp_time, rw.comp_total);
    }
  }
}

TEST(TraceTimeline, AllRanksShareTheWindowGrid) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const auto per_rank = trace::analyzeAllWindows(*machine.traceCollector(),
                                                 usec(100));
  ASSERT_FALSE(per_rank.empty());
  for (const trace::RankWindows& rw : per_rank) {
    EXPECT_EQ(rw.windows.size(), per_rank.front().windows.size());
  }
  const auto merged = trace::sumWindows(per_rank);
  EXPECT_EQ(merged.size(), per_rank.front().windows.size());
}

// ------------------------------------------------- matching/critical path

TEST(TraceCriticalPath, LateSenderIsDetectedAndBlamed) {
  // Rank 1 posts its receive immediately; rank 0 computes 2 ms before
  // sending.  Every exchange is sender-limited, so the path must spend most
  // of the run on rank 0, and the edges must classify as late-sender.
  mpi::JobConfig cfg = tracedConfig();
  mpi::Machine machine(cfg);
  std::vector<std::uint8_t> buf(64 * 1024, 1);
  machine.run([&](mpi::Mpi& mpi) {
    for (int i = 0; i < 4; ++i) {
      if (mpi.rank() == 0) {
        mpi.compute(msec(2));
        mpi.send(buf.data(), 64 * 1024, 1, 0);
      } else {
        mpi.recv(buf.data(), 64 * 1024, 0, 0);
      }
      mpi.barrier();
    }
  });
  const trace::Collector& tc = *machine.traceCollector();
  const auto edges = trace::matchMessages(tc);
  ASSERT_FALSE(edges.empty());
  std::int64_t late_senders = 0;
  for (const trace::MessageEdge& e : edges) {
    EXPECT_GE(e.match, e.send_post);
    if (e.lateSender()) ++late_senders;
  }
  EXPECT_GT(late_senders, 0);

  const trace::CriticalPath cp = trace::computeCriticalPath(tc, edges);
  ASSERT_FALSE(cp.segments.empty());
  // Segments partition [0, end).
  EXPECT_EQ(cp.segments.front().begin, 0);
  EXPECT_EQ(cp.segments.back().end, cp.end_time);
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].begin, cp.segments[i - 1].end);
  }
  DurationNs share_sum = 0;
  for (const DurationNs s : cp.rank_share) share_sum += s;
  EXPECT_EQ(share_sum, cp.end_time);
  // The compute-heavy sender dominates the path.
  EXPECT_GT(cp.rank_share[0], cp.rank_share[1]);
}

// ------------------------------------------------------------------ flags

constexpr util::Flag kTraceFlags[] = {
    util::kOvprofTrace,  util::kOvprofTraceCapacity, util::kOvprofTraceWindow,
    util::kOvprofVerify, util::kOvprofFault,
};
constexpr util::Cli kTraceCli = {"prog", "", kTraceFlags};

TEST(TraceFlags, UnknownOvprofFlagIsRejected) {
  const char* argv[] = {"prog", "--ovprof-tracee=/tmp/x.json"};
  util::Flags flags;
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv), kTraceCli));
}

TEST(TraceFlags, KnownOvprofFlagsParse) {
  const char* argv[] = {"prog", "--ovprof-trace=/tmp/x.json",
                        "--ovprof-trace-capacity=1024",
                        "--ovprof-trace-window=500000", "--ovprof-verify",
                        "--ovprof-fault=drop=0.01"};
  util::Flags flags;
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv), kTraceCli));
  EXPECT_EQ(flags.getString("ovprof-trace", ""), "/tmp/x.json");
  EXPECT_EQ(flags.getInt("ovprof-trace-capacity", 0), 1024);
  EXPECT_EQ(flags.getInt("ovprof-trace-window", 0), 500000);
  EXPECT_TRUE(flags.getBool("ovprof-verify", false));
  EXPECT_EQ(flags.getString("ovprof-fault", ""), "drop=0.01");
}

TEST(TraceFlags, BareTraceFlagGetsDefaultPath) {
  const char* argv[] = {"prog", "--ovprof-trace"};
  util::Flags flags;
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv), kTraceCli));
  EXPECT_EQ(flags.getString("ovprof-trace", ""), "ovprof-trace.json");
}

TEST(TraceFlags, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  util::Flags flags;
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv), kTraceCli));
  EXPECT_TRUE(flags.helpRequested());
  const char* argv2[] = {"prog", "-h"};
  util::Flags flags2;
  ASSERT_TRUE(flags2.parse(2, const_cast<char**>(argv2), kTraceCli));
  EXPECT_TRUE(flags2.helpRequested());
}

// -------------------------------------------------------------- lifecycle

TEST(TraceCollector, DisabledConfigCreatesNoCollector) {
  mpi::JobConfig cfg = tracedConfig();
  cfg.trace.enabled = false;
  mpi::Machine machine(cfg);
  machine.run(tracedWorkload);
  EXPECT_EQ(machine.traceCollector(), nullptr);
}

TEST(TraceCollector, NicRecordsArePresent) {
  mpi::Machine machine(tracedConfig());
  machine.run(tracedWorkload);
  const trace::Collector& tc = *machine.traceCollector();
  std::int64_t posts = 0, completions = 0;
  for (Rank r = 0; r < tc.nranks(); ++r) {
    for (std::size_t i = 0; i < tc.ring(r).size(); ++i) {
      const trace::Record& rec = tc.ring(r).at(i);
      if (rec.kind == trace::RecordKind::NicPost) ++posts;
      if (rec.kind == trace::RecordKind::NicComplete) ++completions;
    }
  }
  EXPECT_GT(posts, 0);
  EXPECT_GT(completions, 0);
}

// ------------------------------------------------------------------ hooks
// The library's own trace points as an outside tool sees them through the
// sink: CALL records for the outermost call only, one MATCH per delivered
// message however it arrived, and the matching stream even with the
// framework compiled out.

std::vector<trace::Record> recordsOfKind(const trace::Collector& tc, Rank r,
                                         trace::RecordKind kind) {
  std::vector<trace::Record> out;
  for (std::size_t i = 0; i < tc.ring(r).size(); ++i) {
    if (tc.ring(r).at(i).kind == kind) out.push_back(tc.ring(r).at(i));
  }
  return out;
}

mpi::JobConfig twoRankTraced() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.trace.enabled = true;
  return cfg;
}

TEST(Hooks, CallBracketsBalanceAndCountOutermostOnly) {
  // Collectives run over point-to-point; only the barrier itself counts.
  mpi::Machine m(twoRankTraced());
  m.run([](mpi::Mpi& mpi) {
    mpi.barrier();
    mpi.barrier();
  });
  const trace::Collector& tc = *m.traceCollector();
  for (Rank r = 0; r < 2; ++r) {
    EXPECT_EQ(recordsOfKind(tc, r, trace::RecordKind::CallEnter).size(), 2u)
        << r;
    EXPECT_EQ(recordsOfKind(tc, r, trace::RecordKind::CallExit).size(), 2u)
        << r;
  }
}

TEST(Hooks, ReceiverSeesMatch) {
  mpi::Machine m(twoRankTraced());
  m.run([](mpi::Mpi& mpi) {
    int v = 5;
    if (mpi.rank() == 0) {
      mpi.send(&v, sizeof v, 1, 42);
    } else {
      mpi.recv(&v, sizeof v, 0, 42);
    }
  });
  const auto matches =
      recordsOfKind(*m.traceCollector(), 1, trace::RecordKind::Match);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].peer, 0);
  EXPECT_EQ(matches[0].tag, 42);
  EXPECT_EQ(matches[0].bytes, static_cast<Bytes>(sizeof(int)));
}

TEST(Hooks, MatchFiresForUnexpectedAndRendezvous) {
  // A rendezvous message matched by a posted receive, then an eager one
  // that lands unexpected and matches when its receive is posted.
  mpi::JobConfig cfg = twoRankTraced();
  cfg.mpi.preset = mpi::Preset::OpenMpiLeavePinned;
  mpi::Machine m(cfg);
  std::vector<std::uint8_t> big(300000);
  m.run([&](mpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(big.data(), 300000, 1, 1);
      const int v = 1;
      mpi.send(&v, sizeof v, 1, 2);
    } else {
      mpi.recv(big.data(), 300000, 0, 1);
      mpi.compute(usec(300));
      int got = 0;
      mpi.recv(&got, sizeof got, 0, 2);
    }
  });
  const trace::Collector& tc = *m.traceCollector();
  const auto matches = recordsOfKind(tc, 1, trace::RecordKind::Match);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].peer, 0);
  EXPECT_EQ(matches[0].tag, 1);
  EXPECT_EQ(matches[0].bytes, 300000);
  EXPECT_EQ(matches[1].peer, 0);
  EXPECT_EQ(matches[1].tag, 2);
  EXPECT_EQ(matches[1].bytes, static_cast<Bytes>(sizeof(int)));
  const auto posts = recordsOfKind(tc, 1, trace::RecordKind::RecvPost);
  ASSERT_EQ(posts.size(), 2u);
  EXPECT_EQ(matches[1].time, posts[1].time + trace::kRecordCost)
      << "the eager message was already queued when its receive was posted";
}

TEST(Hooks, WorkUninstrumented) {
  // No monitor: no CALL records, but the matching stream is still pushed.
  mpi::JobConfig cfg = twoRankTraced();
  cfg.mpi.instrument = false;
  mpi::Machine m(cfg);
  m.run([](mpi::Mpi& mpi) {
    int v = 1;
    if (mpi.rank() == 0) {
      mpi.send(&v, sizeof v, 1, 0);
    } else {
      mpi.recv(&v, sizeof v, 0, 0);
    }
  });
  const trace::Collector& tc = *m.traceCollector();
  EXPECT_TRUE(m.reports().empty());
  EXPECT_TRUE(recordsOfKind(tc, 0, trace::RecordKind::CallEnter).empty());
  EXPECT_EQ(recordsOfKind(tc, 0, trace::RecordKind::SendPost).size(), 1u);
  EXPECT_EQ(recordsOfKind(tc, 1, trace::RecordKind::Match).size(), 1u);
}

}  // namespace
}  // namespace ovp
