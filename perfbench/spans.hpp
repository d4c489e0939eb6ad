// Span recorder of the benchmark worker.
//
// A span is one timed call into an ovprof module: name, module, host
// start/end (steady_clock ns), the enclosing span, and the pass it belongs
// to.  Spans are kept in memory and written out as JSON lines when the
// worker ends; run.py derives per-module self time and coverage from them.
//
// Every Call measures its own wall time whether or not recording is on (two
// clock reads), so untraced passes can still report per-call walls.  With
// recording off, no span is stored and nothing is allocated.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string module;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 at top level
  int pass = 0;
};

class SpanRecorder {
 public:
  void setEnabled(bool on) { enabled_ = on; }
  void setPass(int pass) { pass_ = pass; }

  /// Opens a span under the innermost open one; -1 when recording is off.
  int open(const char* name, const char* module, std::int64_t start_ns) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, module, start_ns, start_ns, parent, pass_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (spans close innermost first; -1 is ignored).
  void close(int id, std::int64_t end_ns) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
    while (!open_.empty() && open_.back() >= id) open_.pop_back();
  }

  void writeJsonLines(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"module\": \"" << s.module << "\", \"start_ns\": "
         << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"pass\": " << s.pass << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  int pass_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The worker's one recorder (the engine tap records into it too).
inline SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

/// One timed call: opens a span on construction, closes it on stop() or
/// destruction (also when the call throws).
class Call {
 public:
  Call(const char* name, const char* module)
      : start_ns_(nowNs()), id_(spans().open(name, module, start_ns_)) {}
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
  ~Call() { stop(); }

  /// Ends the call (idempotent); returns its wall time in seconds.
  double stop() {
    if (end_ns_ < 0) {
      end_ns_ = nowNs();
      spans().close(id_, end_ns_);
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
  std::int64_t end_ns_ = -1;
  int id_;
};

}  // namespace perfbench
