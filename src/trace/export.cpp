#include "trace/export.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "overlap/replay.hpp"
#include "trace/critical_path.hpp"
#include "trace/timeline.hpp"
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

/// The one output buffer both exporters format into: integers go through
/// std::to_chars, text is copied as is, and a full buffer goes to the
/// stream in one write, so no event or row costs a heap string of its own
/// and memory stays flat however long the trace is.
class OutBuf {
 public:
  explicit OutBuf(std::ostream& os) : os_(os), buf_(new char[kSize]) {}

  void put(char ch) {
    if (len_ == kSize) flush();
    buf_[len_++] = ch;
  }
  void put(std::string_view text) {
    if (text.empty()) return;
    if (text.size() > kSize - len_) {
      flush();
      if (text.size() > kSize) {
        os_.write(text.data(), static_cast<std::streamsize>(text.size()));
        return;
      }
    }
    std::memcpy(buf_.get() + len_, text.data(), text.size());
    len_ += text.size();
  }
  void num(std::int64_t v) {
    if (kSize - len_ < kMaxDigits) flush();
    char* const at = buf_.get() + len_;
    len_ += static_cast<std::size_t>(
        std::to_chars(at, buf_.get() + kSize, v).ptr - at);
  }

  /// Nanoseconds as fixed-point microseconds ("123.456") — integers only,
  /// so the text is deterministic.
  void usFixed(TimeNs ns) {
    if (ns < 0) {  // printf's rendering of a negative remainder, kept as is
      char tmp[48];
      const int n = std::snprintf(tmp, sizeof tmp, "%" PRId64 ".%03" PRId64,
                                  ns / 1000, ns % 1000);
      put(std::string_view(tmp, static_cast<std::size_t>(n)));
      return;
    }
    num(ns / 1000);
    const auto frac = static_cast<int>(ns % 1000);
    const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                            static_cast<char>('0' + frac / 10 % 10),
                            static_cast<char>('0' + frac % 10)};
    put(std::string_view(digits, sizeof digits));
  }

  /// Appends `text` as JSON string content; util::jsonEscape runs only
  /// when a byte needs escaping.
  void jsonText(std::string_view text) {
    const bool plain = std::none_of(text.begin(), text.end(), [](char ch) {
      return ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20;
    });
    if (plain) {
      put(text);
    } else {
      put(util::jsonEscape(text));
    }
  }

  /// One comma-separated CSV line: integers in decimal, text as is.
  template <typename... Fields>
  void csvLine(const Fields&... fields) {
    bool first = true;
    const auto field = [&](const auto& f) {
      if (!first) put(',');
      first = false;
      if constexpr (std::is_integral_v<std::decay_t<decltype(f)>>) {
        num(static_cast<std::int64_t>(f));
      } else {
        put(std::string_view(f));
      }
    };
    (field(fields), ...);
    put('\n');
  }

  void flush() {
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kSize = std::size_t{1} << 18;
  static constexpr std::size_t kMaxDigits = 20;  // "-9223372036854775808"

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

/// "<prefix><n><suffix>" on the stack, for numbered event names such as
/// "xfer 4096B" (prefix and suffix are short literals).
class Numbered {
 public:
  Numbered(std::string_view prefix, std::int64_t n,
           std::string_view suffix = {}) {
    char* p = std::copy(prefix.begin(), prefix.end(), buf_);
    p = std::to_chars(p, buf_ + sizeof buf_, n).ptr;
    p = std::copy(suffix.begin(), suffix.end(), p);
    len_ = static_cast<std::size_t>(p - buf_);
  }
  operator std::string_view() const { return {buf_, len_}; }

 private:
  char buf_[64];
  std::size_t len_ = 0;
};

const char* workTypeName(std::uint8_t aux, bool exhausted) {
  switch (aux) {
    case 0: return exhausted ? "send (retry exhausted)" : "send";
    case 1: return exhausted ? "rdma-write (retry exhausted)" : "rdma-write";
    case 2: return exhausted ? "rdma-read (retry exhausted)" : "rdma-read";
    default: return exhausted ? "work (retry exhausted)" : "work";
  }
}

/// An integer event argument; every argument the exporter writes is one.
struct Arg {
  const char* key;
  std::int64_t value;
};

/// Writes Chrome trace events straight into the output buffer, one per
/// line, comma-separated.
class EventSink {
 public:
  explicit EventSink(OutBuf& out) : out_(out) {}

  void span(std::string_view name, const char* cat, int pid, int tid,
            TimeNs begin, TimeNs end, std::initializer_list<Arg> args = {}) {
    open(name);
    out_.put(R"(","ph":"X","cat":")");
    out_.put(cat);
    out_.put(R"(","ts":)");
    out_.usFixed(begin);
    out_.put(R"(,"dur":)");
    out_.usFixed(end > begin ? end - begin : 0);
    close(pid, tid, args);
  }

  void instant(std::string_view name, const char* cat, int pid, int tid,
               TimeNs t, std::initializer_list<Arg> args = {}) {
    open(name);
    out_.put(R"(","ph":"i","s":"t","cat":")");
    out_.put(cat);
    out_.put(R"(","ts":)");
    out_.usFixed(t);
    close(pid, tid, args);
  }

  void meta(const char* name, int pid, int tid, std::string_view value) {
    open(name);
    out_.put(R"(","ph":"M","pid":)");
    out_.num(pid);
    out_.put(R"(,"tid":)");
    out_.num(tid);
    out_.put(R"(,"args":{"name":")");
    out_.jsonText(value);
    out_.put("\"}}");
  }

  /// Ends the event list (the last event carries no comma).
  void finish() {
    if (any_) out_.put('\n');
  }

 private:
  void open(std::string_view name) {
    out_.put(any_ ? ",\n    {\"name\":\"" : "    {\"name\":\"");
    any_ = true;
    out_.jsonText(name);
  }

  void close(int pid, int tid, std::initializer_list<Arg> args) {
    out_.put(R"(,"pid":)");
    out_.num(pid);
    out_.put(R"(,"tid":)");
    out_.num(tid);
    if (args.size() > 0) {
      const char* sep = R"(,"args":{")";
      for (const Arg& a : args) {
        out_.put(sep);
        out_.put(a.key);
        out_.put("\":");
        out_.num(a.value);
        sep = ",\"";
      }
      out_.put('}');
    }
    out_.put('}');
  }

  OutBuf& out_;
  bool any_ = false;
};

/// Replay sink that draws one rank's compute, call and transfer tracks; the
/// payload of an open transfer is its BEGIN time.  A compute span is a run
/// of contiguous out-of-call pieces: a gap (disabled time) closes it and a
/// CALL_ENTER flushes it.  A call span ends at the CALL_EXIT record the walk
/// hands to exited(), a transfer span at its END.  What is still open at the
/// horizon is drawn last, the transfers in id order.
class TrackSink {
 public:
  using Payload = TimeNs;

  TrackSink(EventSink& events, int pid) : events_(events), pid_(pid) {}

  void occupied(TimeNs a, TimeNs b, bool in_call) {
    if (in_call) return;
    if (a != compute_end_) {
      flushCompute();
      compute_begin_ = a;
    }
    compute_end_ = b;
  }
  void entered(TimeNs t) {
    flushCompute();
    call_begin_ = t;
  }
  void exited(TimeNs t) {
    if (call_begin_ == kTimeNever) return;
    events_.span("comm-call", "comm", pid_, kTidCalls, call_begin_, t);
    call_begin_ = kTimeNever;
  }
  void begun(TimeNs t, TimeNs& begin) { begin = t; }
  void priced(const overlap::PricedXfer& x, const TimeNs* begin) {
    if (begin == nullptr) {
      events_.instant("xfer-end (case 3)", "xfer", pid_, kTidXfers, x.end,
                      {{"bytes", x.size}, {"case", 3}});
    } else if (x.in.end_seen) {
      events_.span(Numbered("xfer ", x.size, "B"), "xfer", pid_, kTidXfers,
                   *begin, x.end, {{"bytes", x.size}, {"id", x.id}});
    } else {
      unfinished_.emplace(x.id, std::pair{*begin, x.size});
    }
  }

  /// Draws what is still open once Replay::finish has run to `horizon`.
  void close(TimeNs horizon) {
    flushCompute();
    if (horizon > call_begin_) exited(horizon);
    for (const auto& [id, x] : unfinished_) {
      events_.span(Numbered("xfer ", x.second, "B (open)"), "xfer", pid_,
                   kTidXfers, x.first, horizon,
                   {{"bytes", x.second}, {"id", id}, {"open", 1}});
    }
  }

 private:
  void flushCompute() {
    if (compute_end_ > compute_begin_) {
      events_.span("compute", "compute", pid_, kTidCompute, compute_begin_,
                   compute_end_);
    }
    compute_begin_ = compute_end_;
  }

  EventSink& events_;
  int pid_;
  TimeNs compute_begin_ = 0;  // the run being extended, empty when equal
  TimeNs compute_end_ = 0;
  TimeNs call_begin_ = kTimeNever;  // never: no call is open
  std::map<TransferId, std::pair<TimeNs, Bytes>> unfinished_;  // by id
};

void emitRank(EventSink& sink, const Collector& c, Rank r) {
  const int pid = r;
  const TraceRing& ring = c.ring(r);
  const TimeNs rank_end = std::max(
      c.endTime(r), ring.size() > 0 ? ring.at(ring.size() - 1).time : 0);

  sink.meta("process_name", pid, 0, Numbered("rank ", r));
  sink.meta("thread_name", pid, kTidCalls, "comm-calls");
  sink.meta("thread_name", pid, kTidXfers, "transfers");
  sink.meta("thread_name", pid, kTidCompute, "compute");
  sink.meta("thread_name", pid, kTidNic, "nic");
  sink.meta("thread_name", pid, kTidSections, "sections");
  sink.meta("thread_name", pid, kTidWaits, "waits");

  overlap::Replay<TimeNs> replay(c.table());
  TrackSink tracks(sink, pid);
  std::unordered_map<std::int64_t, std::pair<TimeNs, std::uint8_t>> open_work;
  std::vector<std::pair<TimeNs, std::int64_t>> section_stack;

  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Record& rec = ring.at(i);
    if (isMonitorOrigin(rec.kind)) replay.consume(monitorEvent(rec), tracks);
    switch (rec.kind) {
      case RecordKind::CallExit:
        tracks.exited(rec.time);
        break;
      case RecordKind::SectionBegin:
        section_stack.emplace_back(rec.time, rec.id);
        break;
      case RecordKind::SectionEnd:
        if (!section_stack.empty()) {
          const auto [begin, id] = section_stack.back();
          section_stack.pop_back();
          const std::string_view name = c.sectionName(r, id);
          sink.span(name.empty() ? "section" : name, "section", pid,
                    kTidSections, begin, rec.time);
        }
        break;
      case RecordKind::Match:
        sink.instant("match", "comm", pid, kTidCalls, rec.time,
                     {{"src", rec.peer},
                      {"tag", rec.tag},
                      {"bytes", rec.bytes}});
        break;
      case RecordKind::NicPost:
        open_work[rec.id] = {rec.time, rec.aux};
        break;
      case RecordKind::NicComplete: {
        const auto it = open_work.find(rec.id);
        if (it == open_work.end()) break;
        sink.span(workTypeName(it->second.second, rec.tag != 0), "nic", pid,
                  kTidNic, it->second.first, rec.time,
                  {{"id", rec.id}, {"status", rec.tag}});
        open_work.erase(it);
        break;
      }
      case RecordKind::NicRetransmit:
        sink.instant("retransmit", "nic", pid, kTidNic, rec.time,
                     {{"attempt", rec.tag},
                      {"dst", rec.peer},
                      {"bytes", rec.bytes}});
        break;
      case RecordKind::NicTimeout:
        sink.instant("ack-timeout", "nic", pid, kTidNic, rec.time,
                     {{"attempt", rec.tag}});
        break;
      case RecordKind::RmaPut:
      case RecordKind::RmaGet:
      case RecordKind::RmaAcc: {
        const char* name = rec.kind == RecordKind::RmaPut   ? "rma-put"
                           : rec.kind == RecordKind::RmaGet ? "rma-get"
                                                            : "rma-acc";
        sink.instant(name, "rma", pid, kTidXfers, rec.time,
                     {{"target", rec.peer},
                      {"segment", rec.tag},
                      {"offset", rec.addr},
                      {"bytes", rec.bytes},
                      {"op", rec.id}});
        break;
      }
      case RecordKind::RmaComplete:
        sink.instant("rma-complete", "rma", pid, kTidXfers, rec.time,
                     {{"op", rec.id}});
        break;
      case RecordKind::Fence:
        sink.instant("fence", "rma", pid, kTidCalls, rec.time,
                     {{"target", rec.peer}});
        break;
      case RecordKind::Barrier:
        sink.instant("barrier", "comm", pid, kTidCalls, rec.time,
                     {{"epoch", rec.id}});
        break;
      case RecordKind::CallEnter:
      case RecordKind::XferBegin:
      case RecordKind::XferEnd:
      case RecordKind::Disable:
      case RecordKind::Enable:
      case RecordKind::SendPost:
      case RecordKind::RecvPost:
        break;  // monitor records are drawn by `tracks`, posts as waits
    }
  }
  replay.finish(rank_end, tracks);
  tracks.close(rank_end);
}

}  // namespace

void writeChromeJson(const Collector& c, std::ostream& os) {
  // The header carries the critical path's edge counts, so the cross-rank
  // passes run before any event is written.
  const std::vector<MessageEdge> edges = matchMessages(c);
  const CriticalPath path = computeCriticalPath(c, edges);

  OutBuf out(os);
  out.put("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n"
          "    \"tool\": \"ovprof\",\n    \"ranks\": \"");
  out.num(c.nranks());
  out.put("\",\n    \"records\": \"");
  out.num(c.recordedTotal());
  out.put("\",\n    \"dropped\": \"");
  out.num(c.droppedTotal());
  out.put("\",\n    \"late_sender_edges\": \"");
  out.num(path.late_sender_edges);
  out.put("\",\n    \"late_receiver_edges\": \"");
  out.num(path.late_receiver_edges);
  out.put("\"\n  },\n  \"traceEvents\": [\n");

  EventSink sink(out);
  for (Rank r = 0; r < c.nranks(); ++r) emitRank(sink, c, r);

  for (const MessageEdge& e : edges) {
    const std::initializer_list<Arg> args = {
        {"src", e.src}, {"dst", e.dst}, {"tag", e.tag}, {"bytes", e.bytes}};
    if (e.lateSender()) {
      sink.span("late-sender wait", "wait", e.dst, kTidWaits, e.recv_post,
                e.match, args);
    } else if (e.lateReceiver()) {
      sink.span("late-receiver wait", "wait", e.src, kTidWaits, e.send_post,
                e.match, args);
    }
  }

  const int cluster_pid = c.nranks();
  sink.meta("process_name", cluster_pid, 0, "cluster");
  sink.meta("thread_name", cluster_pid, 0, "critical-path");
  for (const PathSegment& s : path.segments) {
    sink.span(Numbered("rank ", s.rank), "critical-path", cluster_pid, 0,
              s.begin, s.end, {{"rank", s.rank}});
  }
  sink.finish();
  out.put("  ]\n}\n");
  out.flush();
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
  OutBuf out(os);
  out.csvLine("# ovprof-trace-csv", 2);
  out.csvLine("# ranks", c.nranks());
  for (Rank r = 0; r < c.nranks(); ++r) {
    out.csvLine("# end_time", r, c.endTime(r));
  }
  const overlap::XferTimeTable& table = c.table();
  for (std::size_t i = 0; i < table.points(); ++i) {
    const auto [size, time] = table.point(i);
    out.csvLine("# xfer_point", size, time);
  }
  for (Rank r = 0; r < c.nranks(); ++r) {
    if (c.ring(r).dropped() > 0) {
      out.csvLine("# dropped", r, c.ring(r).dropped());
    }
  }
  for (Rank r = 0; r < c.nranks(); ++r) {
    for (std::int32_t s = 0; s < c.segmentCount(r); ++s) {
      out.csvLine("# segment", r, s, c.segmentBytes(r, s));
    }
  }
  out.put("rank,seq,time_ns,kind,id,peer,tag,bytes,aux,addr,name\n");
  for (Rank r = 0; r < c.nranks(); ++r) {
    const TraceRing& ring = c.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      std::string_view name;
      if (rec.kind == RecordKind::SectionBegin) {
        name = c.sectionName(r, rec.id);
      }
      out.csvLine(r, i, rec.time, recordKindName(rec.kind), rec.id, rec.peer,
                  rec.tag, rec.bytes, static_cast<int>(rec.aux), rec.addr,
                  name);
    }
  }
  out.flush();
}

bool writeCsvFile(const Collector& c, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  writeCsv(c, os);
  return static_cast<bool>(os);
}

}  // namespace ovp::trace
