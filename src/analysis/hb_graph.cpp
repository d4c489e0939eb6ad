#include "analysis/hb_graph.hpp"

#include <cstddef>
#include <map>
#include <set>
#include <utility>

namespace ovp::analysis {

namespace {

using trace::Record;
using trace::RecordKind;

struct BarrierEpoch {
  VectorClock joined;
  std::set<Rank> arrived;  // each ticked and joined on arrival
  bool forced = false;  // completed without all ranks (dropped records)
};

struct Builder {
  static constexpr std::size_t kNoEdge = ~std::size_t{0};

  Builder(const trace::Collector& c,
          const std::vector<trace::MessageEdge>& edges)
      : c_(c), nranks_(c.nranks()), snapshots_(edges.size()) {
    for (Rank r = 0; r < nranks_; ++r) {
      clocks_.emplace_back(nranks_);
      edge_at_.emplace_back(c.ring(r).size(), kNoEdge);
    }
    pos_.assign(static_cast<std::size_t>(nranks_), 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      edge_at_[static_cast<std::size_t>(edges[e].src)][edges[e].send_at] = e;
      edge_at_[static_cast<std::size_t>(edges[e].dst)][edges[e].match_at] = e;
    }
  }

  HbGraph run() {
    bool all_done = false;
    while (!all_done) {
      bool progressed = false;
      all_done = true;
      for (Rank r = 0; r < nranks_; ++r) {
        progressed |= advance(r);
        all_done &= pos_[static_cast<std::size_t>(r)] == c_.ring(r).size();
      }
      if (!all_done && !progressed) forceProgress();
    }
    return std::move(out_);
  }

 private:
  /// Processes rank r's records until it blocks or finishes.  Returns
  /// whether at least one record was consumed.
  bool advance(Rank r) {
    const trace::TraceRing& ring = c_.ring(r);
    std::size_t& i = pos_[static_cast<std::size_t>(r)];
    bool progressed = false;
    while (i < ring.size()) {
      if (blockedOn(r, i)) break;
      consume(r, i);
      ++i;
      progressed = true;
    }
    return progressed;
  }

  [[nodiscard]] bool blockedOn(Rank r, std::size_t i) {
    const Record& rec = c_.ring(r).at(i);
    if (rec.kind == RecordKind::Match) {
      // Needs its SEND_POST's snapshot, which the sender may not have
      // produced yet (or never recorded: then only forceProgress moves on).
      const std::size_t e = edge_at_[static_cast<std::size_t>(r)][i];
      return e == kNoEdge || snapshots_[e].size() == 0;
    }
    if (rec.kind == RecordKind::Barrier) {
      BarrierEpoch& e = epochs_[rec.id];
      if (e.joined.size() == 0) e.joined = VectorClock(nranks_);
      if (e.forced) return false;
      // Arrive once; releases when everyone has.
      if (e.arrived.insert(r).second) {
        VectorClock& my = clocks_[static_cast<std::size_t>(r)];
        my.tick(r);  // the barrier record's own tick, before the join
        e.joined.join(my);
      }
      return static_cast<int>(e.arrived.size()) < nranks_;
    }
    return false;
  }

  void consume(Rank r, std::size_t i) {
    const Record& rec = c_.ring(r).at(i);
    const std::size_t e = edge_at_[static_cast<std::size_t>(r)][i];
    VectorClock& my = clocks_[static_cast<std::size_t>(r)];
    // Barrier records tick at arrival time inside blockedOn (their tick must
    // be part of the epoch join); everything else ticks here.
    const bool barrier_ticked = rec.kind == RecordKind::Barrier &&
                                epochs_[rec.id].arrived.contains(r);
    if (!barrier_ticked) my.tick(r);

    switch (rec.kind) {
      case RecordKind::SendPost:
        if (e != kNoEdge) snapshots_[e] = my;
        break;
      case RecordKind::Match:
        // Force-progressed without a snapshot: joining it is a no-op.
        if (e != kNoEdge) my.join(snapshots_[e]);
        break;
      case RecordKind::Barrier: {
        my.join(epochs_[rec.id].joined);
        break;
      }
      case RecordKind::RmaPut:
      case RecordKind::RmaGet:
      case RecordKind::RmaAcc: {
        RmaAccess a;
        a.origin = r;
        a.target = rec.peer;
        a.kind = rec.kind;
        a.op = rec.id;
        a.segment = rec.tag;
        a.offset = rec.addr;
        a.bytes = rec.bytes;
        a.post_time = rec.time;
        a.post_clock = my;
        open_ops_[std::make_pair(r, rec.id)].push_back(out_.accesses.size());
        out_.accesses.push_back(std::move(a));
        break;
      }
      case RecordKind::RmaComplete: {
        const auto it = open_ops_.find(std::make_pair(r, rec.id));
        if (it == open_ops_.end()) break;
        for (const std::size_t idx : it->second) {
          RmaAccess& a = out_.accesses[idx];
          a.settled = true;
          a.settle_time = rec.time;
          a.settle_clock = my;
        }
        open_ops_.erase(it);
        break;
      }
      default:
        break;  // local records only tick
    }
  }

  /// Called when every unfinished rank is blocked: the trace is missing the
  /// records that would release someone (ring overflow dropped them).
  /// Releases the lowest blocked rank without its join so the walk
  /// terminates, and records why.
  void forceProgress() {
    out_.incomplete = true;
    for (Rank r = 0; r < nranks_; ++r) {
      std::size_t& i = pos_[static_cast<std::size_t>(r)];
      if (i >= c_.ring(r).size()) continue;
      const Record& rec = c_.ring(r).at(i);
      if (rec.kind == RecordKind::Barrier) {
        epochs_[rec.id].forced = true;
        out_.incomplete_reasons.push_back(
            "barrier epoch " + std::to_string(rec.id) +
            " released with " +
            std::to_string(epochs_[rec.id].arrived.size()) +
            "/" + std::to_string(nranks_) + " arrivals (records dropped?)");
      } else {
        // A Match with no sender snapshot: consume without joining.
        out_.incomplete_reasons.push_back(
            "rank " + std::to_string(r) + " match from rank " +
            std::to_string(rec.peer) +
            " had no recorded send (records dropped?)");
        consume(r, i);
        ++i;
      }
      return;
    }
  }

  const trace::Collector& c_;
  int nranks_;
  HbGraph out_;
  std::vector<VectorClock> clocks_;
  std::vector<std::size_t> pos_;
  /// Per rank and ring position: the message edge whose SEND_POST or
  /// MATCH sits there.
  std::vector<std::vector<std::size_t>> edge_at_;
  /// Per edge: the sender's clock at its SEND_POST, once consumed.
  std::vector<VectorClock> snapshots_;
  std::map<std::int64_t, BarrierEpoch> epochs_;
  /// (origin, op id) -> access indices awaiting their RMA_COMPLETE.
  std::map<std::pair<Rank, std::int64_t>, std::vector<std::size_t>> open_ops_;
};

}  // namespace

HbGraph buildHbGraph(const trace::Collector& c,
                     const std::vector<trace::MessageEdge>& edges) {
  return Builder(c, edges).run();
}

}  // namespace ovp::analysis
