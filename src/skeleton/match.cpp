#include "skeleton/match.hpp"

#include <cstdint>
#include <sstream>
#include <unordered_map>

namespace ovp::skel {

namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

struct SendHalf {
  OpRef ref;
  Rank dst = -1;
  int tag = 0;
  Bytes bytes = 0;
  const Op* op = nullptr;
  std::int32_t channel = -1;  // index into Halves::channels
  bool consumed = false;
};

struct RecvHalf {
  OpRef ref;
  Rank src = -1;  // may be mpi::kAnySource
  int tag = 0;    // may be mpi::kAnyTag
  Bytes bytes = 0;
  const Op* op = nullptr;
  std::int32_t fifo = -1;  // concrete source: the send FIFO it matches from
  bool consumed = false;
};

/// Half indices in program order, with a head past the consumed prefix.
/// Halves leave a FIFO only by being consumed, so every head moves forward
/// and each entry is stepped over at most once: amortized O(1) per lookup.
struct Fifo {
  std::vector<std::int32_t> items;
  std::size_t head = 0;
};

/// Oldest unconsumed half in `f`, or -1.
template <typename Half>
std::int32_t front(Fifo& f, const std::vector<Half>& halves) {
  while (f.head < f.items.size() &&
         halves[static_cast<std::size_t>(f.items[f.head])].consumed) {
    ++f.head;
  }
  return f.head < f.items.size() ? f.items[f.head] : -1;
}

/// One (src, dst) pair that carries at least one send.
struct Channel {
  std::int32_t all = -1;  // send FIFO over every tag (any-tag receives)
  Fifo recvs;             // receives on dst naming src (leftover pass)
};

[[nodiscard]] std::uint64_t pairKey(std::int32_t a, std::int32_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

/// Every send and receive half, flat in (rank, program order), plus the
/// send FIFOs the three passes consume from: per channel over all tags, and
/// per (channel, tag) lane.  Built in one pass over the ops, so every match
/// lookup is a FIFO head instead of a rescan of the source's sends.
struct Halves {
  std::vector<SendHalf> sends;  // by source rank, then program order
  std::vector<RecvHalf> recvs;  // by destination rank, then program order
  std::vector<Channel> channels;
  std::vector<Fifo> fifos;
  /// Per destination: its channels by source ascending (wildcard pass).
  std::vector<std::vector<std::int32_t>> into;
  std::unordered_map<std::uint64_t, std::int32_t> lane_of;  // (channel, tag)

  [[nodiscard]] std::int32_t lane(std::int32_t channel, int tag) const {
    const auto it = lane_of.find(pairKey(channel, tag));
    return it == lane_of.end() ? -1 : it->second;
  }
};

Halves extractHalves(const Skeleton& skel) {
  Halves h;
  for (Rank r = 0; r < skel.nranks; ++r) {
    const Program& prog = skel.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const Op& op = prog.ops[i];
      const OpRef ref{r, static_cast<std::int32_t>(i)};
      switch (op.kind) {
        case OpKind::Send:
        case OpKind::Isend:
          h.sends.push_back({ref, op.peer, op.tag, op.bytes, &op, -1, false});
          break;
        case OpKind::Recv:
        case OpKind::Irecv:
          h.recvs.push_back({ref, op.peer, op.tag, op.bytes, &op, -1, false});
          break;
        case OpKind::Sendrecv:
          h.sends.push_back({ref, op.peer, op.tag, op.bytes, &op, -1, false});
          h.recvs.push_back({ref, op.src, op.rtag, op.rbytes, &op, -1, false});
          break;
        default:
          break;
      }
    }
  }

  // Sends arrive by source ascending, so each FIFO fills in program order
  // and each destination's channel list in source order.
  h.into.resize(static_cast<std::size_t>(skel.nranks));
  std::unordered_map<std::uint64_t, std::int32_t> channel_of;  // (src, dst)
  const auto newFifo = [&h] {
    h.fifos.emplace_back();
    return static_cast<std::int32_t>(h.fifos.size() - 1);
  };
  for (std::size_t k = 0; k < h.sends.size(); ++k) {
    SendHalf& sd = h.sends[k];
    const auto [chan, fresh] =
        channel_of.try_emplace(pairKey(sd.ref.rank, sd.dst), -1);
    if (fresh) {
      chan->second = static_cast<std::int32_t>(h.channels.size());
      h.channels.push_back({newFifo(), {}});
      if (sd.dst >= 0 && sd.dst < skel.nranks) {
        h.into[static_cast<std::size_t>(sd.dst)].push_back(chan->second);
      }
    }
    sd.channel = chan->second;
    const auto [lane, lane_fresh] =
        h.lane_of.try_emplace(pairKey(sd.channel, sd.tag), -1);
    if (lane_fresh) lane->second = newFifo();
    const auto item = static_cast<std::int32_t>(k);
    const Channel& c = h.channels[static_cast<std::size_t>(sd.channel)];
    h.fifos[static_cast<std::size_t>(c.all)].items.push_back(item);
    h.fifos[static_cast<std::size_t>(lane->second)].items.push_back(item);
  }
  for (std::size_t k = 0; k < h.recvs.size(); ++k) {
    RecvHalf& rv = h.recvs[k];
    if (rv.src == mpi::kAnySource) continue;
    const auto chan = channel_of.find(pairKey(rv.src, rv.ref.rank));
    if (chan == channel_of.end()) continue;  // no send on it: stays unmatched
    Channel& c = h.channels[static_cast<std::size_t>(chan->second)];
    c.recvs.items.push_back(static_cast<std::int32_t>(k));
    rv.fifo = rv.tag == mpi::kAnyTag ? c.all : h.lane(chan->second, rv.tag);
  }
  return h;
}

[[nodiscard]] bool bytesAgree(Bytes a, Bytes b) {
  return a == kAnyBytes || b == kAnyBytes || a == b;
}

std::string channelLabel(Rank src, Rank dst, int tag) {
  std::ostringstream os;
  os << src << "->" << dst << " tag ";
  if (tag == mpi::kAnyTag) {
    os << "any";
  } else {
    os << tag;
  }
  return os.str();
}

Diagnostic makeDiag(Severity sev, DiagCode code, Rank rank,
                    const std::string& site, std::string detail,
                    std::string group) {
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.rank = rank;
  d.site = site;
  d.detail = std::move(detail);
  d.group = std::move(group);
  return d;
}

}  // namespace

// ---- MatchRelation ----

void MatchRelation::addSend(Rank src, Rank dst, int tag, Bytes bytes) {
  sends_[{src, dst, tag}].insert(bytes);
}

void MatchRelation::addRecv(Rank dst, Rank src, int tag, Bytes bytes) {
  if (src == mpi::kAnySource || tag == mpi::kAnyTag) {
    recv_wild_[dst].emplace_back(src, tag, bytes);
  } else {
    recvs_[{src, dst, tag}].insert(bytes);
  }
}

void MatchRelation::addPut(Rank origin, Rank target, Bytes bytes) {
  puts_[{origin, target}].insert(bytes);
}

void MatchRelation::addGet(Rank origin, Rank target, Bytes bytes) {
  gets_[{origin, target}].insert(bytes);
}

bool MatchRelation::setAdmits(const std::map<Key, std::set<Bytes>>& m,
                              const Key& key, Bytes bytes) {
  const auto it = m.find(key);
  if (it == m.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

bool MatchRelation::admitsMatch(Rank src, Rank dst, int tag,
                                Bytes bytes) const {
  if (!setAdmits(sends_, {src, dst, tag}, bytes)) return false;
  if (setAdmits(recvs_, {src, dst, tag}, bytes)) return true;
  const auto it = recv_wild_.find(dst);
  if (it == recv_wild_.end()) return false;
  for (const auto& [psrc, ptag, pbytes] : it->second) {
    if (mpi::receiveMatches(psrc, ptag, src, tag) &&
        bytesAgree(pbytes, bytes)) {
      return true;
    }
  }
  return false;
}

bool MatchRelation::admitsPut(Rank origin, Rank target, Bytes bytes) const {
  const auto it = puts_.find({origin, target});
  if (it == puts_.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

bool MatchRelation::admitsGet(Rank origin, Rank target, Bytes bytes) const {
  const auto it = gets_.find({origin, target});
  if (it == gets_.end()) return false;
  return it->second.count(bytes) != 0 || it->second.count(kAnyBytes) != 0;
}

MatchRelation buildMatchRelation(const Skeleton& skel) {
  MatchRelation rel;
  for (Rank r = 0; r < skel.nranks; ++r) {
    for (const Op& op : skel.ranks[static_cast<std::size_t>(r)].ops) {
      switch (op.kind) {
        case OpKind::Send:
        case OpKind::Isend:
          rel.addSend(r, op.peer, op.tag, op.bytes);
          break;
        case OpKind::Recv:
        case OpKind::Irecv:
          rel.addRecv(r, op.peer, op.tag, op.bytes);
          break;
        case OpKind::Sendrecv:
          rel.addSend(r, op.peer, op.tag, op.bytes);
          rel.addRecv(r, op.src, op.rtag, op.rbytes);
          break;
        case OpKind::RmaPut:
          rel.addPut(r, op.peer, op.bytes);
          break;
        case OpKind::RmaGet:
          rel.addGet(r, op.peer, op.bytes);
          break;
        default:
          break;
      }
    }
  }
  return rel;
}

// ---- runMatch ----

MatchResult runMatch(const Skeleton& skel) {
  MatchResult result;
  Halves h = extractHalves(skel);
  std::vector<Diagnostic> diags;
  const auto pair = [&](SendHalf& sd, RecvHalf& rv) {
    sd.consumed = true;
    rv.consumed = true;
    result.edges.push_back({sd.ref, rv.ref});
    ++result.matched;
  };

  // Pass 1: concrete-source receives, matched per (src, dst) channel in
  // program order, FIFO per tag (MPI non-overtaking).
  for (RecvHalf& rv : h.recvs) {
    if (rv.src == mpi::kAnySource || rv.fifo < 0) continue;
    const std::int32_t k =
        front(h.fifos[static_cast<std::size_t>(rv.fifo)], h.sends);
    if (k < 0) continue;
    SendHalf& sd = h.sends[static_cast<std::size_t>(k)];
    pair(sd, rv);
    if (!bytesAgree(sd.bytes, rv.bytes)) {
      const Rank d = rv.ref.rank;
      std::ostringstream os;
      os << "send " << channelLabel(rv.src, d, sd.tag) << " carries "
         << sd.bytes << " B but the matching receive posts " << rv.bytes
         << " B";
      diags.push_back(makeDiag(
          Severity::Warning, DiagCode::StaticSizeMismatch, d, rv.op->site,
          os.str(),
          "size|" + channelLabel(rv.src, d, sd.tag) + "|" + rv.op->site));
    }
  }

  // Pass 2: wildcard receives consume leftover sends targeting their rank,
  // in send program order over source ranks ascending (a deterministic
  // stand-in for the run-time race the wildcard admits).  Each one visits
  // its rank's channels, so it costs O(channels into the rank).
  for (RecvHalf& rv : h.recvs) {
    if (rv.src != mpi::kAnySource) continue;
    const Rank d = rv.ref.rank;
    diags.push_back(makeDiag(
        Severity::Note, DiagCode::StaticWildcardRecv, d, rv.op->site,
        "wildcard receive: any sender may match first, so the match "
        "order is nondeterministic",
        "wild|" + std::to_string(d) + "|" + rv.op->site));
    for (const std::int32_t c : h.into[static_cast<std::size_t>(d)]) {
      const std::int32_t fifo =
          rv.tag == mpi::kAnyTag ? h.channels[static_cast<std::size_t>(c)].all
                            : h.lane(c, rv.tag);
      if (fifo < 0) continue;
      const std::int32_t k =
          front(h.fifos[static_cast<std::size_t>(fifo)], h.sends);
      if (k < 0) continue;
      pair(h.sends[static_cast<std::size_t>(k)], rv);
      break;
    }
  }

  // Pass 3: leftovers.  A channel holding both unmatched sends and
  // unmatched receives is a tag mismatch (the tags are disjoint, or the
  // halves would have paired); pure leftovers are unmatched send/receive.
  for (SendHalf& sd : h.sends) {
    if (sd.consumed) continue;
    Channel& c = h.channels[static_cast<std::size_t>(sd.channel)];
    const std::int32_t k = front(c.recvs, h.recvs);
    if (k < 0) continue;
    RecvHalf& partner = h.recvs[static_cast<std::size_t>(k)];
    partner.consumed = true;
    sd.consumed = true;
    result.unmatched += 2;
    const Rank s = sd.ref.rank;
    std::ostringstream os;
    os << "send " << channelLabel(s, sd.dst, sd.tag)
       << " can never pair with the leftover receive expecting tag ";
    if (partner.tag == mpi::kAnyTag) {
      os << "any";
    } else {
      os << partner.tag;
    }
    diags.push_back(makeDiag(
        Severity::Error, DiagCode::StaticTagMismatch, s, sd.op->site,
        os.str(),
        "tagmm|" + channelLabel(s, sd.dst, sd.tag) + "|" + sd.op->site));
  }
  for (const SendHalf& sd : h.sends) {
    if (sd.consumed) continue;
    const Rank s = sd.ref.rank;
    ++result.unmatched;
    diags.push_back(makeDiag(
        Severity::Error, DiagCode::StaticUnmatchedSend, s, sd.op->site,
        "send " + channelLabel(s, sd.dst, sd.tag) +
            " has no receive that can ever match it",
        "usend|" + channelLabel(s, sd.dst, sd.tag) + "|" + sd.op->site));
  }
  for (const RecvHalf& rv : h.recvs) {
    if (rv.consumed) continue;
    const Rank d = rv.ref.rank;
    ++result.unmatched;
    const Rank src_label = rv.src;
    std::ostringstream os;
    os << "receive from ";
    if (src_label == mpi::kAnySource) {
      os << "any";
    } else {
      os << src_label;
    }
    os << " on rank " << d << " tag ";
    if (rv.tag == mpi::kAnyTag) {
      os << "any";
    } else {
      os << rv.tag;
    }
    os << " has no send that can ever match it";
    diags.push_back(makeDiag(
        Severity::Error, DiagCode::StaticUnmatchedRecv, d, rv.op->site,
        os.str(),
        "urecv|" + channelLabel(src_label, d, rv.tag) + "|" + rv.op->site));
  }

  result.diagnostics = analysis::dedupDiagnostics(std::move(diags));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

}  // namespace ovp::skel
