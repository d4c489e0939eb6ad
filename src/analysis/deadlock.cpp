#include "analysis/deadlock.hpp"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/record.hpp"

namespace ovp::analysis {

namespace {

using trace::Record;
using trace::RecordKind;

// Head-of-line chain sweep: closed edges shorter than kMinChainBlock are
// ignored, only the kMaxChainEdges longest are paired, and at most
// kMaxChainNotes notes are reported.
constexpr DurationNs kMinChainBlock = 50 * 1000;  // 50 us
constexpr std::size_t kMaxChainEdges = 256;
constexpr std::size_t kMaxChainNotes = 4;

struct Edge {
  Rank from = -1;  // the blocked rank
  Rank to = -1;    // the rank it waits on
  TimeNs lo = 0;
  TimeNs hi = kTimeNever;  // exclusive; kTimeNever = open (never released)

  [[nodiscard]] bool open() const { return hi == kTimeNever; }
  [[nodiscard]] DurationNs span() const {
    return hi == kTimeNever ? 0 : hi - lo;
  }
};

}  // namespace

std::vector<Diagnostic> analyzeWaitFor(
    const trace::Collector& c, const std::vector<trace::MessageEdge>& messages) {
  std::vector<Diagnostic> out;
  const int nranks = c.nranks();

  // Each rank's CALL_EXIT times, which are in time order (monitor-origin
  // records), and which of its ring positions a message consumed.
  std::vector<std::vector<TimeNs>> exits(static_cast<std::size_t>(nranks));
  std::vector<std::vector<bool>> consumed(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) {
    const trace::TraceRing& ring = c.ring(r);
    consumed[static_cast<std::size_t>(r)].assign(ring.size(), false);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (ring.at(i).kind == RecordKind::CallExit) {
        exits[static_cast<std::size_t>(r)].push_back(ring.at(i).time);
      }
    }
  }

  // A post blocks its rank from `lo` until its release, the first CALL_EXIT
  // at or after it, or until its peer acts, whichever comes first.  A
  // truncated ring may have dropped the release, so there an unreleased
  // post makes no edge.
  std::vector<Edge> edges;
  const auto wait = [&](Rank from, Rank to, TimeNs lo, TimeNs peer_acts) {
    const std::vector<TimeNs>& ex = exits[static_cast<std::size_t>(from)];
    const auto release = std::lower_bound(ex.begin(), ex.end(), lo);
    if (release == ex.end() && c.ring(from).dropped() > 0) return;
    const TimeNs hi =
        std::min(release == ex.end() ? kTimeNever : *release, peer_acts);
    if (hi > lo) edges.push_back({from, to, lo, hi});
  };
  // A matched message: the sender waits until the receive is posted, the
  // receiver until the send is.  A message whose RECV_POST is unknown makes
  // no edge, and a wildcard receive constrains no one.
  for (const trace::MessageEdge& m : messages) {
    consumed[static_cast<std::size_t>(m.src)][m.send_at] = true;
    if (m.recv_post < 0) continue;
    consumed[static_cast<std::size_t>(m.dst)][m.recv_at] = true;
    wait(m.src, m.dst, m.send_post, m.recv_post);
    if (c.ring(m.dst).at(m.recv_at).peer >= 0) {
      wait(m.dst, m.src, m.recv_post, m.send_post);
    }
  }
  // A post no message matched waits on its named peer until its release.
  for (Rank r = 0; r < nranks; ++r) {
    const trace::TraceRing& ring = c.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Record& rec = ring.at(i);
      if ((rec.kind == RecordKind::SendPost ||
           rec.kind == RecordKind::RecvPost) &&
          rec.peer >= 0 && !consumed[static_cast<std::size_t>(r)][i]) {
        wait(r, rec.peer, rec.time, kTimeNever);
      }
    }
  }

  // ---- deadlock: cycles among open edges ----
  // An open edge pins its rank forever, so at trace end the open edges form
  // a static graph; any cycle in it is a certain deadlock.  Parallel edges
  // close the same cycle, so each rank keeps one per peer.
  std::vector<std::vector<Rank>> waits_on(static_cast<std::size_t>(nranks));
  std::vector<TimeNs> open_since(static_cast<std::size_t>(nranks), 0);
  for (const Edge& e : edges) {
    if (!e.open()) continue;
    const auto from = static_cast<std::size_t>(e.from);
    waits_on[from].push_back(e.to);
    open_since[from] = std::max(open_since[from], e.lo);
  }
  for (std::vector<Rank>& peers : waits_on) {
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  }
  std::vector<int> color(static_cast<std::size_t>(nranks), 0);  // 0/1/2
  std::vector<Rank> stack;
  std::vector<std::vector<Rank>> cycles;
  auto dfs = [&](auto&& self, Rank u) -> void {
    color[static_cast<std::size_t>(u)] = 1;
    stack.push_back(u);
    for (const Rank v : waits_on[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        const auto it = std::find(stack.begin(), stack.end(), v);
        cycles.emplace_back(it, stack.end());
      } else if (color[static_cast<std::size_t>(v)] == 0) {
        self(self, v);
      }
    }
    stack.pop_back();
    color[static_cast<std::size_t>(u)] = 2;
  };
  for (Rank r = 0; r < nranks; ++r) {
    if (color[static_cast<std::size_t>(r)] == 0) dfs(dfs, r);
  }
  for (const std::vector<Rank>& cyc : cycles) {
    TimeNs since = 0;
    std::string members;
    for (const Rank r : cyc) {
      since = std::max(since, open_since[static_cast<std::size_t>(r)]);
      if (!members.empty()) members += " -> ";
      members += std::to_string(r);
    }
    members += " -> " + std::to_string(cyc.front());
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = DiagCode::DeadlockCycle;
    d.rank = cyc.front();
    d.time = since;
    d.site = "blocking send/recv";
    d.detail = "wait-for cycle " + members +
               ": every rank on the cycle is blocked until trace end; " +
               "break it by reordering the exchange (e.g. odd/even phases " +
               "or sendrecv)";
    out.push_back(std::move(d));
  }

  // ---- head-of-line blocking chains (near-cycles) ----
  // Among the longest closed edges, look for chains r1 -> r2 -> r3 ... that
  // are simultaneously active: rank r1 is stalled on r2 while r2 is itself
  // stalled on r3.  Progress happened eventually, so this is advisory.
  std::vector<const Edge*> closed;
  for (const Edge& e : edges) {
    if (!e.open() && e.span() >= kMinChainBlock) closed.push_back(&e);
  }
  std::sort(closed.begin(), closed.end(), [](const Edge* a, const Edge* b) {
    if (a->span() != b->span()) return a->span() > b->span();
    return std::tie(a->from, a->to, a->lo) < std::tie(b->from, b->to, b->lo);
  });
  if (closed.size() > kMaxChainEdges) closed.resize(kMaxChainEdges);
  std::size_t notes = 0;
  for (const Edge* e1 : closed) {
    if (notes >= kMaxChainNotes) break;
    for (const Edge* e2 : closed) {
      if (notes >= kMaxChainNotes) break;
      if (e2->from != e1->to || e2->to == e1->from) continue;
      // Simultaneously active?
      const TimeNs lo = std::max(e1->lo, e2->lo);
      const TimeNs hi = std::min(e1->hi, e2->hi);
      if (hi <= lo) continue;
      Diagnostic d;
      d.severity = Severity::Note;
      d.code = DiagCode::BlockingChain;
      d.rank = e1->from;
      d.time = lo;
      d.site = "blocking send/recv";
      d.group = "chain " + std::to_string(e1->from) + "->" +
                std::to_string(e1->to) + "->" + std::to_string(e2->to);
      d.detail = "head-of-line chain: rank " + std::to_string(e1->from) +
                 " waits on rank " + std::to_string(e1->to) +
                 " which waits on rank " + std::to_string(e2->to) + " for " +
                 std::to_string(hi - lo) +
                 " ns; consider splitting the exchange to break the chain";
      out.push_back(std::move(d));
      ++notes;
    }
  }

  return out;
}

}  // namespace ovp::analysis
