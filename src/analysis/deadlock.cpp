#include "analysis/deadlock.hpp"

#include <algorithm>
#include <map>
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

struct Post {
  TimeNs time = 0;
  TimeNs next_call_exit = kTimeNever;  // never: blocked until trace end
  Rank peer = -1;
  std::int32_t tag = 0;
  Bytes bytes = 0;
};

struct Edge {
  Rank from = -1;  // the blocked rank
  Rank to = -1;    // the rank it waits on
  TimeNs lo = 0;
  TimeNs hi = kTimeNever;  // exclusive; kTimeNever = open (never released)
  Bytes bytes = 0;
  std::int32_t tag = 0;

  [[nodiscard]] bool open() const { return hi == kTimeNever; }
  [[nodiscard]] DurationNs span() const {
    return hi == kTimeNever ? 0 : hi - lo;
  }
};

/// Collects SEND_POST / RECV_POST records per rank with each post's
/// enclosing-call exit time (the moment the rank stopped being blocked,
/// whatever else happened).
void collectPosts(const trace::Collector& c, Rank r, std::vector<Post>& sends,
                  std::vector<Post>& recvs) {
  const trace::TraceRing& ring = c.ring(r);
  std::vector<std::pair<std::size_t, bool>> pending;  // (index, is_send)
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Record& rec = ring.at(i);
    if (rec.kind == RecordKind::SendPost || rec.kind == RecordKind::RecvPost) {
      Post p;
      p.time = rec.time;
      p.peer = rec.peer;
      p.tag = rec.tag;
      p.bytes = rec.bytes;
      const bool is_send = rec.kind == RecordKind::SendPost;
      auto& list = is_send ? sends : recvs;
      pending.emplace_back(list.size(), is_send);
      list.push_back(p);
    } else if (rec.kind == RecordKind::CallExit) {
      for (const auto& [idx, is_send] : pending) {
        (is_send ? sends : recvs)[idx].next_call_exit = rec.time;
      }
      pending.clear();
    }
  }
}

}  // namespace

std::vector<Diagnostic> analyzeWaitFor(const trace::Collector& c) {
  std::vector<Diagnostic> out;
  const int nranks = c.nranks();

  std::vector<std::vector<Post>> sends(static_cast<std::size_t>(nranks));
  std::vector<std::vector<Post>> recvs(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) {
    collectPosts(c, r, sends[static_cast<std::size_t>(r)],
                 recvs[static_cast<std::size_t>(r)]);
  }

  // Non-overtaking pairing: k-th send on (src, dst, tag) matches the k-th
  // recv on dst naming (src, tag).  Wildcard receives (peer < 0) don't
  // constrain anyone and are skipped.
  using Channel = std::tuple<Rank, Rank, std::int32_t>;
  std::map<Channel, std::vector<std::size_t>> send_idx, recv_idx;
  for (Rank r = 0; r < nranks; ++r) {
    const auto& ss = sends[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < ss.size(); ++i) {
      if (ss[i].peer < 0) continue;
      send_idx[{r, ss[i].peer, ss[i].tag}].push_back(i);
    }
    const auto& rr = recvs[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < rr.size(); ++i) {
      if (rr[i].peer < 0) continue;
      recv_idx[{rr[i].peer, r, rr[i].tag}].push_back(i);
    }
  }

  std::vector<Edge> edges;
  for (const auto& [ch, s_list] : send_idx) {
    const auto& [src, dst, tag] = ch;
    const auto rit = recv_idx.find(ch);
    const std::size_t paired =
        rit == recv_idx.end() ? 0 : std::min(s_list.size(),
                                             rit->second.size());
    for (std::size_t k = 0; k < s_list.size(); ++k) {
      const Post& s = sends[static_cast<std::size_t>(src)][s_list[k]];
      const TimeNs recv_post =
          k < paired
              ? recvs[static_cast<std::size_t>(dst)][rit->second[k]].time
              : kTimeNever;
      const TimeNs hi = std::min(s.next_call_exit, recv_post);
      if (hi > s.time) {
        edges.push_back({src, dst, s.time, hi, s.bytes, tag});
      }
    }
  }
  for (const auto& [ch, r_list] : recv_idx) {
    const auto& [src, dst, tag] = ch;
    const auto sit = send_idx.find(ch);
    const std::size_t paired =
        sit == send_idx.end() ? 0 : std::min(r_list.size(),
                                             sit->second.size());
    for (std::size_t k = 0; k < r_list.size(); ++k) {
      const Post& rp = recvs[static_cast<std::size_t>(dst)][r_list[k]];
      const TimeNs send_post =
          k < paired
              ? sends[static_cast<std::size_t>(src)][sit->second[k]].time
              : kTimeNever;
      const TimeNs hi = std::min(rp.next_call_exit, send_post);
      if (hi > rp.time) {
        edges.push_back({dst, src, rp.time, hi, rp.bytes, tag});
      }
    }
  }

  // ---- deadlock: cycles among open edges ----
  // An open edge pins its rank forever, so at trace end the open edges form
  // a static graph; any cycle in it is a certain deadlock.
  std::vector<std::vector<const Edge*>> open_adj(
      static_cast<std::size_t>(nranks));
  for (const Edge& e : edges) {
    if (e.open()) open_adj[static_cast<std::size_t>(e.from)].push_back(&e);
  }
  for (auto& v : open_adj) {
    std::sort(v.begin(), v.end(), [](const Edge* a, const Edge* b) {
      return std::tie(a->to, a->lo, a->tag) < std::tie(b->to, b->lo, b->tag);
    });
  }
  std::vector<int> color(static_cast<std::size_t>(nranks), 0);  // 0/1/2
  std::vector<Rank> stack;
  std::vector<std::vector<Rank>> cycles;
  auto dfs = [&](auto&& self, Rank u) -> void {
    color[static_cast<std::size_t>(u)] = 1;
    stack.push_back(u);
    for (const Edge* e : open_adj[static_cast<std::size_t>(u)]) {
      const Rank v = e->to;
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
      for (const Edge* e : open_adj[static_cast<std::size_t>(r)]) {
        since = std::max(since, e->lo);
      }
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
