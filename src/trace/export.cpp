#include "trace/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/critical_path.hpp"
#include "util/strings.hpp"

namespace ovp::trace {

namespace {

// Track (tid) layout within each rank's process.
constexpr int kTidCalls = 0;
constexpr int kTidXfers = 1;
constexpr int kTidCompute = 2;
constexpr int kTidNic = 3;
constexpr int kTidSections = 4;
constexpr int kTidWaits = 5;

void appendf(std::string& s, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) s.append(buf, static_cast<std::size_t>(n));
}

using util::jsonEscape;

/// Nanoseconds as fixed-point microseconds ("123.456") — integers only, so
/// the text is deterministic.
std::string usFixed(TimeNs ns) {
  std::string s;
  appendf(s, "%" PRId64 ".%03" PRId64, ns / 1000, ns % 1000);
  return s;
}

const char* workTypeName(std::uint8_t aux) {
  switch (aux) {
    case 0: return "send";
    case 1: return "rdma-write";
    case 2: return "rdma-read";
    default: return "work";
  }
}

class EventSink {
 public:
  void span(const std::string& name, const char* cat, int pid, int tid,
            TimeNs begin, TimeNs end, const std::string& args = {}) {
    std::string e;
    appendf(e, "{\"name\":\"%s\",\"ph\":\"X\",\"cat\":\"%s\",\"ts\":%s,"
               "\"dur\":%s,\"pid\":%d,\"tid\":%d",
            jsonEscape(name).c_str(), cat, usFixed(begin).c_str(),
            usFixed(end > begin ? end - begin : 0).c_str(), pid, tid);
    if (!args.empty()) e += ",\"args\":{" + args + "}";
    e += "}";
    events_.push_back(std::move(e));
  }

  void instant(const std::string& name, const char* cat, int pid, int tid,
               TimeNs t, const std::string& args = {}) {
    std::string e;
    appendf(e, "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"%s\","
               "\"ts\":%s,\"pid\":%d,\"tid\":%d",
            jsonEscape(name).c_str(), cat, usFixed(t).c_str(), pid, tid);
    if (!args.empty()) e += ",\"args\":{" + args + "}";
    e += "}";
    events_.push_back(std::move(e));
  }

  void meta(const char* name, int pid, int tid, const std::string& value) {
    std::string e;
    appendf(e, "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
               "\"args\":{\"name\":\"%s\"}}",
            name, pid, tid, jsonEscape(value).c_str());
    events_.push_back(std::move(e));
  }

  void write(std::ostream& os) const {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      os << "    " << events_[i];
      if (i + 1 < events_.size()) os << ",";
      os << "\n";
    }
  }

 private:
  std::vector<std::string> events_;
};

void emitRank(EventSink& sink, const Collector& c, Rank r) {
  const int pid = r;
  const TraceRing& ring = c.ring(r);
  const TimeNs rank_end = std::max(
      c.endTime(r), ring.size() > 0 ? ring.at(ring.size() - 1).time : 0);

  sink.meta("process_name", pid, 0,
            "rank " + std::to_string(r));
  sink.meta("thread_name", pid, kTidCalls, "comm-calls");
  sink.meta("thread_name", pid, kTidXfers, "transfers");
  sink.meta("thread_name", pid, kTidCompute, "compute");
  sink.meta("thread_name", pid, kTidNic, "nic");
  sink.meta("thread_name", pid, kTidSections, "sections");
  sink.meta("thread_name", pid, kTidWaits, "waits");

  bool started = false;
  bool in_call = false;
  bool disabled = false;
  TimeNs call_begin = 0;
  TimeNs idle_begin = 0;  // start of the current compute (out-of-call) gap
  std::unordered_map<std::int64_t, std::pair<TimeNs, Bytes>> open_xfers;
  std::unordered_map<std::int64_t, std::pair<TimeNs, std::uint8_t>> open_work;
  std::vector<std::pair<TimeNs, std::int64_t>> section_stack;

  auto closeCompute = [&](TimeNs t) {
    if (started && !in_call && !disabled && t > idle_begin) {
      sink.span("compute", "compute", pid, kTidCompute, idle_begin, t);
    }
  };

  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Record& rec = ring.at(i);
    switch (rec.kind) {
      case RecordKind::CallEnter:
        closeCompute(rec.time);
        started = true;
        in_call = true;
        call_begin = rec.time;
        break;
      case RecordKind::CallExit:
        if (in_call) {
          sink.span("comm-call", "comm", pid, kTidCalls, call_begin, rec.time);
        }
        started = true;
        in_call = false;
        idle_begin = rec.time;
        break;
      case RecordKind::XferBegin:
        open_xfers[rec.id] = {rec.time, rec.bytes};
        break;
      case RecordKind::XferEnd: {
        const auto it = open_xfers.find(rec.id);
        if (it == open_xfers.end()) {
          std::string args;
          appendf(args, "\"bytes\":%" PRId64 ",\"case\":3", rec.bytes);
          sink.instant("xfer-end (case 3)", "xfer", pid, kTidXfers, rec.time,
                       args);
          break;
        }
        std::string args;
        appendf(args, "\"bytes\":%" PRId64 ",\"id\":%" PRId64,
                it->second.second, rec.id);
        sink.span("xfer " + std::to_string(it->second.second) + "B", "xfer",
                  pid, kTidXfers, it->second.first, rec.time, args);
        open_xfers.erase(it);
        break;
      }
      case RecordKind::SectionBegin:
        section_stack.emplace_back(rec.time, rec.id);
        break;
      case RecordKind::SectionEnd:
        if (!section_stack.empty()) {
          const auto [begin, id] = section_stack.back();
          section_stack.pop_back();
          const std::string_view name = c.sectionName(r, id);
          sink.span(name.empty() ? "section" : std::string(name), "section",
                    pid, kTidSections, begin, rec.time);
        }
        break;
      case RecordKind::Disable:
        closeCompute(rec.time);
        disabled = true;
        break;
      case RecordKind::Enable:
        disabled = false;
        idle_begin = rec.time;
        break;
      case RecordKind::SendPost:
      case RecordKind::RecvPost:
        break;  // edges are rendered via matchMessages (waits track)
      case RecordKind::Match: {
        std::string args;
        appendf(args, "\"src\":%d,\"tag\":%d,\"bytes\":%" PRId64, rec.peer,
                rec.tag, rec.bytes);
        sink.instant("match", "comm", pid, kTidCalls, rec.time, args);
        break;
      }
      case RecordKind::NicPost:
        open_work[rec.id] = {rec.time, rec.aux};
        break;
      case RecordKind::NicComplete: {
        const auto it = open_work.find(rec.id);
        if (it == open_work.end()) break;
        std::string args;
        appendf(args, "\"id\":%" PRId64 ",\"status\":%d", rec.id, rec.tag);
        sink.span(std::string(workTypeName(it->second.second)) +
                      (rec.tag != 0 ? " (retry exhausted)" : ""),
                  "nic", pid, kTidNic, it->second.first, rec.time, args);
        open_work.erase(it);
        break;
      }
      case RecordKind::NicRetransmit: {
        std::string args;
        appendf(args, "\"attempt\":%d,\"dst\":%d,\"bytes\":%" PRId64, rec.tag,
                rec.peer, rec.bytes);
        sink.instant("retransmit", "nic", pid, kTidNic, rec.time, args);
        break;
      }
      case RecordKind::NicTimeout: {
        std::string args;
        appendf(args, "\"attempt\":%d", rec.tag);
        sink.instant("ack-timeout", "nic", pid, kTidNic, rec.time, args);
        break;
      }
      case RecordKind::RmaPut:
      case RecordKind::RmaGet:
      case RecordKind::RmaAcc: {
        std::string args;
        appendf(args,
                "\"target\":%d,\"segment\":%d,\"offset\":%" PRId64
                ",\"bytes\":%" PRId64 ",\"op\":%" PRId64,
                rec.peer, rec.tag, rec.addr, rec.bytes, rec.id);
        const char* name = rec.kind == RecordKind::RmaPut   ? "rma-put"
                           : rec.kind == RecordKind::RmaGet ? "rma-get"
                                                            : "rma-acc";
        sink.instant(name, "rma", pid, kTidXfers, rec.time, args);
        break;
      }
      case RecordKind::RmaComplete: {
        std::string args;
        appendf(args, "\"op\":%" PRId64, rec.id);
        sink.instant("rma-complete", "rma", pid, kTidXfers, rec.time, args);
        break;
      }
      case RecordKind::Fence: {
        std::string args;
        appendf(args, "\"target\":%d", rec.peer);
        sink.instant("fence", "rma", pid, kTidCalls, rec.time, args);
        break;
      }
      case RecordKind::Barrier: {
        std::string args;
        appendf(args, "\"epoch\":%" PRId64, rec.id);
        sink.instant("barrier", "comm", pid, kTidCalls, rec.time, args);
        break;
      }
    }
  }
  // Close whatever is still open at the rank's horizon.
  closeCompute(rank_end);
  if (in_call && rank_end > call_begin) {
    sink.span("comm-call", "comm", pid, kTidCalls, call_begin, rank_end);
  }
  std::vector<std::pair<std::int64_t, std::pair<TimeNs, Bytes>>> open(
      open_xfers.begin(), open_xfers.end());
  std::sort(open.begin(), open.end());  // deterministic emission order
  for (const auto& [id, x] : open) {
    std::string args;
    appendf(args, "\"bytes\":%" PRId64 ",\"id\":%" PRId64 ",\"open\":1",
            x.second, id);
    sink.span("xfer " + std::to_string(x.second) + "B (open)", "xfer", pid,
              kTidXfers, x.first, rank_end, args);
  }
}

}  // namespace

void writeChromeJson(const Collector& c, std::ostream& os) {
  EventSink sink;
  for (Rank r = 0; r < c.nranks(); ++r) emitRank(sink, c, r);

  const std::vector<MessageEdge> edges = matchMessages(c);
  for (const MessageEdge& e : edges) {
    std::string args;
    appendf(args, "\"src\":%d,\"dst\":%d,\"tag\":%d,\"bytes\":%" PRId64,
            e.src, e.dst, e.tag, e.bytes);
    if (e.lateSender()) {
      sink.span("late-sender wait", "wait", e.dst, kTidWaits, e.recv_post,
                e.match, args);
    } else if (e.lateReceiver()) {
      sink.span("late-receiver wait", "wait", e.src, kTidWaits, e.send_post,
                e.match, args);
    }
  }

  const CriticalPath path = computeCriticalPath(c, edges);
  const int cluster_pid = c.nranks();
  sink.meta("process_name", cluster_pid, 0, "cluster");
  sink.meta("thread_name", cluster_pid, 0, "critical-path");
  for (const PathSegment& s : path.segments) {
    std::string args;
    appendf(args, "\"rank\":%d", s.rank);
    sink.span("rank " + std::to_string(s.rank), "critical-path", cluster_pid,
              0, s.begin, s.end, args);
  }

  os << "{\n"
     << "  \"displayTimeUnit\": \"ms\",\n"
     << "  \"otherData\": {\n"
     << "    \"tool\": \"ovprof\",\n"
     << "    \"ranks\": \"" << c.nranks() << "\",\n"
     << "    \"records\": \"" << c.recordedTotal() << "\",\n"
     << "    \"dropped\": \"" << c.droppedTotal() << "\",\n"
     << "    \"late_sender_edges\": \"" << path.late_sender_edges << "\",\n"
     << "    \"late_receiver_edges\": \"" << path.late_receiver_edges
     << "\"\n"
     << "  },\n"
     << "  \"traceEvents\": [\n";
  sink.write(os);
  os << "  ]\n}\n";
}

bool writeChromeJsonFile(const Collector& c, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  writeChromeJson(c, os);
  return static_cast<bool>(os);
}

void writeCsv(const Collector& c, std::ostream& os) {
  // v2 header: '#'-prefixed metadata lines carry the collector state that is
  // not per-record (ranks, horizons, xfer table, drop counters, registered
  // segment sizes) so readCsv can rebuild a Collector the offline analyzer
  // can run on.  Consumers that only want records skip '#' lines.
  os << "# ovprof-trace-csv,2\n";
  os << "# ranks," << c.nranks() << '\n';
  for (Rank r = 0; r < c.nranks(); ++r) {
    os << "# end_time," << r << ',' << c.endTime(r) << '\n';
  }
  const overlap::XferTimeTable& table = c.table();
  for (std::size_t i = 0; i < table.points(); ++i) {
    const auto [size, time] = table.point(i);
    os << "# xfer_point," << size << ',' << time << '\n';
  }
  for (Rank r = 0; r < c.nranks(); ++r) {
    if (c.ring(r).dropped() > 0) {
      os << "# dropped," << r << ',' << c.ring(r).dropped() << '\n';
    }
  }
  for (Rank r = 0; r < c.nranks(); ++r) {
    for (std::int32_t s = 0; s < c.segmentCount(r); ++s) {
      os << "# segment," << r << ',' << s << ',' << c.segmentBytes(r, s)
         << '\n';
    }
  }
  os << "rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name\n";
  for (Rank r = 0; r < c.nranks(); ++r) {
    const TraceRing& ring = c.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      std::string_view name;
      if (rec.kind == RecordKind::SectionBegin) {
        name = c.sectionName(r, rec.id);
      }
      os << r << ',' << i << ',' << rec.time << ','
         << recordKindName(rec.kind) << ',' << rec.id << ',' << rec.peer
         << ',' << rec.tag << ',' << rec.bytes << ','
         << static_cast<int>(rec.aux) << ',' << rec.addr << ',' << name
         << '\n';
    }
  }
}

bool writeCsvFile(const Collector& c, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  writeCsv(c, os);
  return static_cast<bool>(os);
}

}  // namespace ovp::trace
