// Randomized property tests for the static skeleton passes: matching,
// deadlock search and overlap windows (skeleton/match, skeleton/deadlock,
// skeleton/overlap_window).
//
// The passes index their halves through per-channel and per-tag FIFOs and
// flat per-op tables.  The references below are the direct statement of
// the same semantics — every receive rescans its source's sends from the
// start, partners, node ids and requests live in ordered maps, every
// nonblocking RMA op scans forward for its fence, every window emits its
// own finding — and the passes must agree with them exactly (edges in
// order, counts, and every diagnostic down to its dedup count) on seeded
// random skeletons: 2–9 ranks, interleaved tags on one channel, any-tag
// and any-source receives, Sendrecv, leftover halves, tag-disjoint
// channels, size disagreements, rendezvous sends, barriers and RMA.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "overlap/xfer_table.hpp"
#include "skeleton/deadlock.hpp"
#include "skeleton/match.hpp"
#include "skeleton/overlap_window.hpp"
#include "util/rng.hpp"

namespace ovp {
namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;
using mpi::kAnySource;
using mpi::kAnyTag;
using skel::kAnyBytes;
using skel::Op;
using skel::OpKind;
using skel::OpRef;
using skel::Skeleton;

// ---- reference matcher: three passes, rescanning per receive ---------

struct RefHalf {
  OpRef ref;
  Rank peer = -1;  // dst of a send, src (maybe any) of a receive
  int tag = 0;
  Bytes bytes = 0;
  const Op* op = nullptr;
  bool consumed = false;
};

std::string label(Rank src, Rank dst, int tag) {
  std::ostringstream os;
  os << src << "->" << dst << " tag ";
  if (tag == kAnyTag) {
    os << "any";
  } else {
    os << tag;
  }
  return os.str();
}

Diagnostic diag(Severity sev, DiagCode code, Rank rank, const std::string& site,
                std::string detail, std::string group) {
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.rank = rank;
  d.site = site;
  d.detail = std::move(detail);
  d.group = std::move(group);
  return d;
}

bool bytesAgree(Bytes a, Bytes b) {
  return a == kAnyBytes || b == kAnyBytes || a == b;
}

skel::MatchResult referenceMatch(const Skeleton& skel) {
  const auto P = static_cast<std::size_t>(skel.nranks);
  std::vector<std::vector<RefHalf>> sends(P);
  std::vector<std::vector<RefHalf>> recvs(P);
  for (Rank r = 0; r < skel.nranks; ++r) {
    const auto& ops = skel.ranks[static_cast<std::size_t>(r)].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const OpRef ref{r, static_cast<std::int32_t>(i)};
      auto& sr = sends[static_cast<std::size_t>(r)];
      auto& rr = recvs[static_cast<std::size_t>(r)];
      if (op.kind == OpKind::Send || op.kind == OpKind::Isend ||
          op.kind == OpKind::Sendrecv) {
        sr.push_back({ref, op.peer, op.tag, op.bytes, &op, false});
      }
      if (op.kind == OpKind::Recv || op.kind == OpKind::Irecv) {
        rr.push_back({ref, op.peer, op.tag, op.bytes, &op, false});
      }
      if (op.kind == OpKind::Sendrecv) {
        rr.push_back({ref, op.src, op.rtag, op.rbytes, &op, false});
      }
    }
  }
  skel::MatchResult result;
  std::vector<Diagnostic> diags;
  const auto pair = [&](RefHalf& sd, RefHalf& rv) {
    sd.consumed = rv.consumed = true;
    result.edges.push_back({sd.ref, rv.ref});
    ++result.matched;
  };
  const auto fits = [](const RefHalf& rv, const RefHalf& sd, Rank d) {
    return !sd.consumed && sd.peer == d &&
           (rv.tag == kAnyTag || rv.tag == sd.tag);
  };
  for (Rank d = 0; d < skel.nranks; ++d) {
    for (RefHalf& rv : recvs[static_cast<std::size_t>(d)]) {
      if (rv.peer == kAnySource) continue;
      for (RefHalf& sd : sends[static_cast<std::size_t>(rv.peer)]) {
        if (!fits(rv, sd, d)) continue;
        pair(sd, rv);
        if (!bytesAgree(sd.bytes, rv.bytes)) {
          std::ostringstream os;
          os << "send " << label(rv.peer, d, sd.tag) << " carries "
             << sd.bytes << " B but the matching receive posts " << rv.bytes
             << " B";
          diags.push_back(diag(
              Severity::Warning, DiagCode::StaticSizeMismatch, d,
              rv.op->site, os.str(),
              "size|" + label(rv.peer, d, sd.tag) + "|" + rv.op->site));
        }
        break;
      }
    }
  }
  for (Rank d = 0; d < skel.nranks; ++d) {
    for (RefHalf& rv : recvs[static_cast<std::size_t>(d)]) {
      if (rv.peer != kAnySource || rv.consumed) continue;
      diags.push_back(diag(
          Severity::Note, DiagCode::StaticWildcardRecv, d, rv.op->site,
          "wildcard receive: any sender may match first, so the match "
          "order is nondeterministic",
          "wild|" + std::to_string(d) + "|" + rv.op->site));
      for (Rank s = 0; s < skel.nranks && !rv.consumed; ++s) {
        for (RefHalf& sd : sends[static_cast<std::size_t>(s)]) {
          if (!fits(rv, sd, d)) continue;
          pair(sd, rv);
          break;
        }
      }
    }
  }
  for (Rank s = 0; s < skel.nranks; ++s) {
    for (RefHalf& sd : sends[static_cast<std::size_t>(s)]) {
      if (sd.consumed) continue;
      RefHalf* partner = nullptr;
      for (RefHalf& rv : recvs[static_cast<std::size_t>(sd.peer)]) {
        if (!rv.consumed && rv.peer == s) {
          partner = &rv;
          break;
        }
      }
      if (partner == nullptr) continue;
      partner->consumed = sd.consumed = true;
      result.unmatched += 2;
      std::ostringstream os;
      os << "send " << label(s, sd.peer, sd.tag)
         << " can never pair with the leftover receive expecting tag ";
      if (partner->tag == kAnyTag) {
        os << "any";
      } else {
        os << partner->tag;
      }
      diags.push_back(diag(
          Severity::Error, DiagCode::StaticTagMismatch, s, sd.op->site,
          os.str(), "tagmm|" + label(s, sd.peer, sd.tag) + "|" + sd.op->site));
    }
  }
  for (Rank s = 0; s < skel.nranks; ++s) {
    for (const RefHalf& sd : sends[static_cast<std::size_t>(s)]) {
      if (sd.consumed) continue;
      ++result.unmatched;
      diags.push_back(diag(
          Severity::Error, DiagCode::StaticUnmatchedSend, s, sd.op->site,
          "send " + label(s, sd.peer, sd.tag) +
              " has no receive that can ever match it",
          "usend|" + label(s, sd.peer, sd.tag) + "|" + sd.op->site));
    }
  }
  for (Rank d = 0; d < skel.nranks; ++d) {
    for (const RefHalf& rv : recvs[static_cast<std::size_t>(d)]) {
      if (rv.consumed) continue;
      ++result.unmatched;
      std::ostringstream os;
      os << "receive from ";
      if (rv.peer == kAnySource) {
        os << "any";
      } else {
        os << rv.peer;
      }
      os << " on rank " << d << " tag ";
      if (rv.tag == kAnyTag) {
        os << "any";
      } else {
        os << rv.tag;
      }
      os << " has no send that can ever match it";
      diags.push_back(diag(
          Severity::Error, DiagCode::StaticUnmatchedRecv, d, rv.op->site,
          os.str(), "urecv|" + label(rv.peer, d, rv.tag) + "|" + rv.op->site));
    }
  }
  result.diagnostics = analysis::dedupDiagnostics(std::move(diags));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

// ---- reference deadlock search: ordered maps, binary search ----------

/// The library's rule, spelled out: a send goes eagerly below the limit.
bool rendezvous(Bytes bytes, const skel::DeadlockConfig& cfg) {
  return bytes != kAnyBytes && bytes >= cfg.eager_limit;
}

/// Reference blocking-dependency graph: nodes in (rank, op) order, each
/// with its out-edges in the order the pass adds them.
struct RefGraph {
  std::vector<OpRef> nodes;
  std::vector<std::vector<int>> out;
  std::int64_t barrier_epochs_min = 0;
  std::int64_t barrier_epochs_max = 0;
};

RefGraph referenceGraph(const Skeleton& skel, const skel::MatchResult& match,
                        const skel::DeadlockConfig& cfg) {
  std::map<OpRef, OpRef> send_partner;
  std::map<OpRef, OpRef> recv_partner;
  for (const skel::MatchEdge& e : match.edges) {
    send_partner[e.send] = e.recv;
    recv_partner[e.recv] = e.send;
  }
  const auto P = static_cast<std::size_t>(skel.nranks);
  RefGraph g;
  std::map<OpRef, int> id;
  std::vector<std::vector<int>> blocking(P);
  std::vector<std::vector<OpRef>> barriers(P);
  std::vector<std::map<int, int>> req_posts(P);
  const auto blocksOn = [&](const skel::Program& prog,
                            const std::map<int, int>& req_post, int q) {
    const auto it = req_post.find(q);
    if (it == req_post.end()) return false;
    const Op& post = prog.ops[static_cast<std::size_t>(it->second)];
    return post.kind == OpKind::Irecv ||
           (post.kind == OpKind::Isend && rendezvous(post.bytes, cfg));
  };
  for (Rank r = 0; r < skel.nranks; ++r) {
    const skel::Program& prog = skel.ranks[static_cast<std::size_t>(r)];
    auto& req_post = req_posts[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const Op& op = prog.ops[i];
      if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv) {
        req_post[op.req] = static_cast<int>(i);
      }
      bool node = op.kind == OpKind::Recv || op.kind == OpKind::Sendrecv ||
                  op.kind == OpKind::Barrier ||
                  (op.kind == OpKind::Send && rendezvous(op.bytes, cfg));
      if (op.kind == OpKind::Wait) node = blocksOn(prog, req_post, op.req);
      if (op.kind == OpKind::Waitall) {
        for (const int q : op.reqs) node = node || blocksOn(prog, req_post, q);
      }
      if (!node) continue;
      const OpRef ref{r, static_cast<std::int32_t>(i)};
      id[ref] = static_cast<int>(g.nodes.size());
      g.nodes.push_back(ref);
      blocking[static_cast<std::size_t>(r)].push_back(static_cast<int>(i));
      if (op.kind == OpKind::Barrier) {
        barriers[static_cast<std::size_t>(r)].push_back(ref);
      }
    }
  }
  g.out.resize(g.nodes.size());
  const auto addDep = [&](int v, const OpRef& post) {
    const auto& blk = blocking[static_cast<std::size_t>(post.rank)];
    const auto it = std::lower_bound(blk.begin(), blk.end(), post.index);
    if (it == blk.begin()) return;
    g.out[static_cast<std::size_t>(v)].push_back(id.at({post.rank, *(it - 1)}));
  };
  const auto viaPartner = [&](int v, const std::map<OpRef, OpRef>& partner,
                              const OpRef& half) {
    const auto p = partner.find(half);
    if (p != partner.end()) addDep(v, p->second);
  };
  for (int v = 0; v < static_cast<int>(g.nodes.size()); ++v) {
    const OpRef ref = g.nodes[static_cast<std::size_t>(v)];
    const skel::Program& prog = skel.ranks[static_cast<std::size_t>(ref.rank)];
    const Op& op = prog.ops[static_cast<std::size_t>(ref.index)];
    const auto forReq = [&](int q) {
      const auto& req_post = req_posts[static_cast<std::size_t>(ref.rank)];
      const auto it = req_post.find(q);
      if (it == req_post.end()) return;
      const OpRef post{ref.rank, it->second};
      const Op& p = prog.ops[static_cast<std::size_t>(it->second)];
      if (p.kind == OpKind::Irecv) viaPartner(v, recv_partner, post);
      if (p.kind == OpKind::Isend && rendezvous(p.bytes, cfg)) {
        viaPartner(v, send_partner, post);
      }
    };
    if (op.kind == OpKind::Recv || op.kind == OpKind::Sendrecv) {
      viaPartner(v, recv_partner, ref);
    }
    if ((op.kind == OpKind::Send || op.kind == OpKind::Sendrecv) &&
        rendezvous(op.bytes, cfg)) {
      viaPartner(v, send_partner, ref);
    }
    if (op.kind == OpKind::Wait) forReq(op.req);
    if (op.kind == OpKind::Waitall) {
      for (const int q : op.reqs) forReq(q);
    }
  }
  std::size_t lo = barriers[0].size();
  std::size_t hi = lo;
  for (const auto& b : barriers) {
    lo = std::min(lo, b.size());
    hi = std::max(hi, b.size());
  }
  g.barrier_epochs_min = static_cast<std::int64_t>(lo);
  g.barrier_epochs_max = static_cast<std::int64_t>(hi);
  for (std::size_t e = 0; e < lo; ++e) {
    for (std::size_t r = 0; r < P; ++r) {
      for (std::size_t o = 0; o < P; ++o) {
        if (o != r) addDep(id.at(barriers[r][e]), barriers[o][e]);
      }
    }
  }
  return g;
}

/// The deadlock findings the reference graph implies: one per strongly
/// connected component with a cycle (found by reachability, independent of
/// the pass's Tarjan), spelled like the pass spells it, plus one for
/// mismatched barrier counts.  Sorted, since only the set is compared.
std::vector<std::string> referenceCycles(const Skeleton& skel,
                                         const RefGraph& g) {
  const std::size_t n = g.nodes.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<int> stack(g.out[v].begin(), g.out[v].end());
    while (!stack.empty()) {
      const auto w = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      if (reach[v][w]) continue;
      reach[v][w] = true;
      for (const int x : g.out[w]) stack.push_back(x);
    }
  }
  std::vector<std::string> found;
  if (g.barrier_epochs_min != g.barrier_epochs_max) {
    std::ostringstream os;
    os << "barrier count differs across ranks (min " << g.barrier_epochs_min
       << ", max " << g.barrier_epochs_max
       << "): some rank blocks at a barrier the others never reach";
    found.push_back(os.str());
  }
  std::vector<bool> seen(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    if (seen[v] || !reach[v][v]) continue;
    std::vector<std::size_t> comp;
    for (std::size_t w = v; w < n; ++w) {
      if (reach[v][w] && reach[w][v]) {
        seen[w] = true;
        comp.push_back(w);
      }
    }
    std::ostringstream os;
    os << "static dependency cycle over " << comp.size()
       << " blocking op(s): ";
    for (std::size_t i = 0; i < std::min<std::size_t>(comp.size(), 8); ++i) {
      const OpRef& ref = g.nodes[comp[i]];
      const Op& op = skel.ranks[static_cast<std::size_t>(ref.rank)]
                         .ops[static_cast<std::size_t>(ref.index)];
      if (i != 0) os << " -> ";
      os << "rank " << ref.rank << " op#" << ref.index << ' '
         << skel::opKindName(op.kind);
      if (!op.site.empty()) os << '(' << op.site << ')';
    }
    if (comp.size() > 8) os << " -> ...";
    found.push_back(os.str());
  }
  std::sort(found.begin(), found.end());
  return found;
}

// ---- reference overlap windows: map lookups, forward fence scan ------

skel::OverlapWindowResult referenceWindows(
    const Skeleton& skel, const overlap::XferTimeTable& table) {
  skel::OverlapWindowResult result;
  std::vector<Diagnostic> diags;
  std::map<std::string, skel::SiteWindow> sites;
  const auto record = [&](Rank rank, const Op& post, DurationNs window) {
    if (post.bytes == kAnyBytes || post.bytes <= 0) return;
    const DurationNs priced = table.lookup(post.bytes);
    if (priced <= 0) return;
    ++result.windows;
    skel::SiteWindow& row = sites[post.site];
    row.site = post.site;
    ++row.transfers;
    row.bytes += post.bytes;
    row.priced += priced;
    row.window += window;
    row.bound += std::min(window, priced);
    std::ostringstream os;
    if (window <= 0) {
      ++row.serialized;
      os << "no compute between " << skel::opKindName(post.kind)
         << " and its completion: the " << post.bytes
         << "-byte transfer is structurally serialized";
      Diagnostic d = diag(Severity::Note, DiagCode::StaticSerializedWindow,
                          rank, post.site, os.str(), "ser|" + post.site);
      d.gain = priced;
      diags.push_back(std::move(d));
    } else if (window < priced) {
      os << "window holds " << window << " ns of compute but the "
         << post.bytes << "-byte transfer is priced at " << priced
         << " ns: overlap is structurally bounded at "
         << 100 * window / priced << "%";
      Diagnostic d = diag(Severity::Note, DiagCode::StaticOverlapShortfall,
                          rank, post.site, os.str(), "short|" + post.site);
      d.gain = priced - window;
      diags.push_back(std::move(d));
    }
  };
  for (Rank r = 0; r < skel.nranks; ++r) {
    const auto& ops = skel.ranks[static_cast<std::size_t>(r)].ops;
    const auto computeBetween = [&](std::size_t from, std::size_t to) {
      DurationNs sum = 0;
      for (std::size_t k = from + 1; k < to; ++k) {
        if (ops[k].kind == OpKind::Compute) sum += ops[k].cost;
      }
      return sum;
    };
    std::map<int, std::size_t> req_post;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv) {
        req_post[op.req] = i;
      }
      std::vector<int> retired;
      if (op.kind == OpKind::Wait) retired.push_back(op.req);
      if (op.kind == OpKind::Waitall) retired = op.reqs;
      for (const int q : retired) {
        const auto it = req_post.find(q);
        if (it != req_post.end()) {
          record(r, ops[it->second], computeBetween(it->second, i));
        }
      }
      if (op.kind != OpKind::RmaPut && op.kind != OpKind::RmaGet) continue;
      if (!op.nb) {
        record(r, op, 0);
        continue;
      }
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[j].kind == OpKind::Fence || ops[j].kind == OpKind::Barrier) {
          record(r, op, computeBetween(i, j));
          break;
        }
      }
    }
  }
  for (auto& [site, row] : sites) result.sites.push_back(std::move(row));
  result.diagnostics = analysis::dedupDiagnostics(std::move(diags));
  analysis::sortDiagnostics(result.diagnostics);
  return result;
}

// ---- random skeletons ------------------------------------------------

/// Messages are generated as (send half, receive half) pairs so most of
/// them match; the receive is inserted a few ops back from the end of its
/// rank's program, so tags on one channel are consumed out of send order.
/// Mutations then make wildcards, leftovers and disjoint tags.
Skeleton randomSkeleton(std::uint64_t seed) {
  util::Rng rng(seed);
  Skeleton s;
  s.name = "random" + std::to_string(seed);
  s.nranks = static_cast<int>(rng.range(2, 9));
  const auto P = static_cast<std::size_t>(s.nranks);
  s.ranks.resize(P);
  std::vector<int> next_req(P, 0);
  std::vector<std::vector<int>> open(P);
  const auto prog = [&](Rank r) -> std::vector<Op>& {
    return s.ranks[static_cast<std::size_t>(r)].ops;
  };
  const auto other = [&](Rank r) {
    const auto k = static_cast<Rank>(
        rng.below(static_cast<std::uint64_t>(s.nranks - 1)));
    return k >= r ? k + 1 : k;
  };
  const auto tag = [&]() -> int {
    return rng.below(6) == 0 ? static_cast<int>(rng.range(100, 103))
                             : static_cast<int>(rng.below(3));
  };
  const auto bytes = [&]() -> Bytes {
    constexpr Bytes kSizes[] = {8, 64, 20000, 100000, kAnyBytes};
    return kSizes[rng.below(5)];
  };
  const auto site = [&]() -> std::string {
    return rng.below(2) == 0 ? "rnd.a" : "rnd.b";
  };
  const auto request = [&](Rank r, Op& op) {
    op.req = next_req[static_cast<std::size_t>(r)]++;
    open[static_cast<std::size_t>(r)].push_back(op.req);
  };
  // The receive half of a message from `src`, with optional wildcards,
  // size disagreement and (rarely) a tag no sender uses.
  const auto recvHalf = [&](Rank dst, Rank src, int t, Bytes b) {
    Op op;
    op.site = site();
    op.kind = rng.below(2) == 0 ? OpKind::Recv : OpKind::Irecv;
    op.peer = rng.below(8) == 0 ? kAnySource : src;
    op.tag = rng.below(8) == 0 ? kAnyTag : t;
    if (rng.below(12) == 0) op.tag = 200 + static_cast<int>(rng.below(3));
    op.bytes = rng.below(8) == 0 ? bytes() : b;
    if (op.kind == OpKind::Irecv) request(dst, op);
    auto& ops = prog(dst);
    const auto back = std::min<std::size_t>(ops.size(), rng.below(4));
    ops.insert(ops.end() - static_cast<std::ptrdiff_t>(back), std::move(op));
  };

  const int steps = static_cast<int>(rng.range(5, 60));
  for (int step = 0; step < steps; ++step) {
    const auto r = static_cast<Rank>(rng.below(P));
    switch (rng.below(9)) {
      case 0:
      case 1:
      case 2: {  // one message r -> d
        const Rank d = other(r);
        Op op;
        op.site = site();
        op.kind = rng.below(2) == 0 ? OpKind::Send : OpKind::Isend;
        op.peer = d;
        op.tag = tag();
        op.bytes = bytes();
        if (op.kind == OpKind::Isend) request(r, op);
        const int t = op.tag;
        const Bytes b = op.bytes;
        prog(r).push_back(std::move(op));
        if (rng.below(10) != 0) recvHalf(d, r, t, b);  // else a leftover
        break;
      }
      case 3: {  // sendrecv on r: sends to d, receives from src
        Op op;
        op.site = site();
        op.kind = OpKind::Sendrecv;
        op.peer = other(r);
        op.tag = tag();
        op.bytes = bytes();
        op.src = rng.below(8) == 0 ? kAnySource : other(r);
        op.rtag = rng.below(8) == 0 ? kAnyTag : tag();
        op.rbytes = bytes();
        const Rank d = op.peer;
        const int t = op.tag;
        const Bytes b = op.bytes;
        const Rank src = op.src == kAnySource ? other(r) : op.src;
        Op partner;
        partner.site = site();
        partner.kind = OpKind::Send;
        partner.peer = r;
        partner.tag = op.rtag == kAnyTag ? tag() : op.rtag;
        partner.bytes = op.rbytes;
        prog(r).push_back(std::move(op));
        if (rng.below(10) != 0) recvHalf(d, r, t, b);
        if (rng.below(10) != 0) prog(src).push_back(std::move(partner));
        break;
      }
      case 4: {  // retire some of r's open requests
        auto& reqs = open[static_cast<std::size_t>(r)];
        if (reqs.empty()) break;
        Op op;
        if (rng.below(2) == 0) {
          op.kind = OpKind::Wait;
          const std::size_t k = rng.below(reqs.size());
          op.req = reqs[k];
          reqs.erase(reqs.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
          op.kind = OpKind::Waitall;
          const auto keep = rng.below(reqs.size());
          while (reqs.size() > keep) {
            op.reqs.push_back(reqs.back());
            reqs.pop_back();
          }
        }
        prog(r).push_back(std::move(op));
        break;
      }
      case 5: {  // a barrier on every rank, rarely on all but one
        const auto skip =
            rng.below(6) == 0 ? static_cast<Rank>(rng.below(P)) : Rank{-1};
        for (Rank q = 0; q < s.nranks; ++q) {
          if (q == skip) continue;
          Op op;
          op.kind = OpKind::Barrier;
          prog(q).push_back(std::move(op));
        }
        break;
      }
      case 6: {  // one-sided: nonblocking ones complete at a fence
        Op op;
        op.site = site();
        op.kind = rng.below(2) == 0 ? OpKind::RmaPut : OpKind::RmaGet;
        op.peer = static_cast<Rank>(rng.below(P));
        op.bytes = bytes();
        op.nb = rng.below(3) != 0;
        prog(r).push_back(std::move(op));
        if (rng.below(3) == 0) {
          Op fence;
          fence.kind = OpKind::Fence;
          fence.peer = static_cast<Rank>(rng.below(P));
          prog(r).push_back(std::move(fence));
        }
        break;
      }
      default: {
        Op op;
        op.kind = OpKind::Compute;
        op.cost = static_cast<DurationNs>(rng.range(0, 50000));
        prog(r).push_back(std::move(op));
        break;
      }
    }
  }
  for (Rank r = 0; r < s.nranks; ++r) {
    auto& reqs = open[static_cast<std::size_t>(r)];
    if (reqs.empty()) continue;
    Op op;
    op.kind = OpKind::Waitall;
    op.reqs.assign(reqs.rbegin(), reqs.rend());
    prog(r).push_back(std::move(op));
  }
  return s;
}

std::vector<std::string> render(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) {
    out.push_back(d.toString() + " | " + d.group);
  }
  return out;
}

constexpr std::uint64_t kSeeds = 400;

TEST(MatchProperty, AgreesWithRescanningReference) {
  std::map<DiagCode, int> seen;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Skeleton s = randomSkeleton(seed);
    ASSERT_EQ(s.validate(), "") << "seed " << seed;
    const skel::MatchResult got = skel::runMatch(s);
    const skel::MatchResult want = referenceMatch(s);
    ASSERT_EQ(got.edges.size(), want.edges.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.edges.size(); ++i) {
      EXPECT_TRUE(got.edges[i].send == want.edges[i].send &&
                  got.edges[i].recv == want.edges[i].recv)
          << "seed " << seed << " edge " << i;
    }
    EXPECT_EQ(got.matched, want.matched) << "seed " << seed;
    EXPECT_EQ(got.unmatched, want.unmatched) << "seed " << seed;
    EXPECT_EQ(render(got.diagnostics), render(want.diagnostics))
        << "seed " << seed;
    for (const Diagnostic& d : got.diagnostics) ++seen[d.code];
  }
  // The generator must actually reach every matcher finding.
  for (const DiagCode code :
       {DiagCode::StaticUnmatchedSend, DiagCode::StaticUnmatchedRecv,
        DiagCode::StaticTagMismatch, DiagCode::StaticSizeMismatch,
        DiagCode::StaticWildcardRecv}) {
    EXPECT_GT(seen[code], 0) << analysis::diagCodeName(code);
  }
}

TEST(DeadlockProperty, AgreesWithMapReference) {
  int cyclic = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Skeleton s = randomSkeleton(seed);
    const skel::MatchResult match = skel::runMatch(s);
    for (const Bytes eager : {Bytes{0}, Bytes{16 * 1024}, Bytes{1} << 40}) {
      skel::DeadlockConfig cfg;
      cfg.eager_limit = eager;
      const skel::DeadlockResult got = skel::runDeadlock(s, match, cfg);
      const RefGraph g = referenceGraph(s, match, cfg);
      const std::vector<std::string> want = referenceCycles(s, g);
      std::vector<std::string> details;
      for (const Diagnostic& d : got.diagnostics) {
        EXPECT_EQ(d.code, DiagCode::StaticDeadlock);
        details.push_back(d.detail);
      }
      std::sort(details.begin(), details.end());
      EXPECT_EQ(got.nodes, static_cast<std::int64_t>(g.nodes.size()))
          << "seed " << seed << " eager " << eager;
      EXPECT_EQ(got.cycles, static_cast<std::int64_t>(want.size()))
          << "seed " << seed << " eager " << eager;
      EXPECT_EQ(details, want) << "seed " << seed << " eager " << eager;
      if (got.cycles > 0) ++cyclic;
    }
  }
  EXPECT_GT(cyclic, 0) << "the generator never produced a deadlock";
}

TEST(OverlapWindowProperty, AgreesWithScanningReference) {
  overlap::XferTimeTable table;
  table.add(8, 1000);
  table.add(1024, 5000);
  table.add(65536, 60000);
  std::map<DiagCode, std::int64_t> seen;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Skeleton s = randomSkeleton(seed);
    const skel::OverlapWindowResult got = skel::runOverlapWindow(s, table);
    const skel::OverlapWindowResult want = referenceWindows(s, table);
    EXPECT_EQ(got.windows, want.windows) << "seed " << seed;
    ASSERT_EQ(got.sites.size(), want.sites.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.sites.size(); ++i) {
      const skel::SiteWindow& a = got.sites[i];
      const skel::SiteWindow& b = want.sites[i];
      EXPECT_TRUE(a.site == b.site && a.transfers == b.transfers &&
                  a.serialized == b.serialized && a.bytes == b.bytes &&
                  a.priced == b.priced && a.window == b.window &&
                  a.bound == b.bound)
          << "seed " << seed << " site " << b.site;
    }
    EXPECT_EQ(render(got.diagnostics), render(want.diagnostics))
        << "seed " << seed;
    for (const Diagnostic& d : got.diagnostics) seen[d.code] += d.count;
  }
  EXPECT_GT(seen[DiagCode::StaticSerializedWindow], 0);
  EXPECT_GT(seen[DiagCode::StaticOverlapShortfall], 0);
}

}  // namespace
}  // namespace ovp
