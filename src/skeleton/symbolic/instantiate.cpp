#include "skeleton/symbolic/instantiate.hpp"

#include <limits>
#include <utility>
#include <vector>

namespace ovp::skel::sym {

namespace {

struct Lowering {
  RankBuilder& rb;
  Env env;
  std::vector<int> open;  // requests since the previous waitall
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) error = what;
    return false;
  }

  bool evalOr(const ExprP& e, std::int64_t& out, const char* what) {
    if (!eval(e, env, out)) {
      return fail(std::string("cannot evaluate ") + what + ": " +
                  toString(e));
    }
    return true;
  }

  bool lowerOp(const SymNode& n) {
    std::int64_t peer = 0;
    std::int64_t tag = 0;
    std::int64_t bytes = 0;
    switch (n.op) {
      case OpKind::Compute: {
        std::int64_t flops = 0;
        if (!evalOr(n.flops, flops, "flops")) return false;
        // Price exactly like nas::CostModel::flops so the double-rounding
        // (and the <= 0 drop in RankBuilder::compute) cannot drift.
        const auto cost = static_cast<DurationNs>(
            static_cast<double>(flops) * ns_per_flop);
        rb.compute(cost);
        return true;
      }
      case OpKind::Isend:
      case OpKind::Irecv:
      case OpKind::Send:
      case OpKind::Recv: {
        if (!evalOr(n.peer, peer, "peer") || !evalOr(n.tag, tag, "tag") ||
            !evalOr(n.bytes, bytes, "bytes")) {
          return false;
        }
        const auto p = static_cast<Rank>(peer);
        const int t = static_cast<int>(tag);
        switch (n.op) {
          case OpKind::Isend: open.push_back(rb.isend(p, t, bytes)); break;
          case OpKind::Irecv: open.push_back(rb.irecv(p, t, bytes)); break;
          case OpKind::Send: rb.send(p, t, bytes); break;
          default: rb.recv(p, t, bytes); break;
        }
        return true;
      }
      case OpKind::Waitall:
        rb.waitall(std::move(open));
        open.clear();
        return true;
      case OpKind::Barrier:
        rb.barrier();
        return true;
      case OpKind::RmaPut:
      case OpKind::RmaGet:
        if (!evalOr(n.peer, peer, "target") ||
            !evalOr(n.bytes, bytes, "bytes")) {
          return false;
        }
        if (n.op == OpKind::RmaPut) {
          rb.put(static_cast<Rank>(peer), bytes, n.nb);
        } else {
          rb.get(static_cast<Rank>(peer), bytes, n.nb);
        }
        return true;
      case OpKind::Fence:
        if (!evalOr(n.peer, peer, "target")) return false;
        rb.fence(static_cast<Rank>(peer));
        return true;
      case OpKind::Wait:
      case OpKind::Sendrecv:
        break;  // validateSym rejects both before lowering
    }
    return fail(std::string(opKindName(n.op)) + " op in symbolic template");
  }

  bool lowerBody(const std::vector<SymNodeP>& body) {
    for (const SymNodeP& n : body) {
      switch (n->node) {
        case SymNodeKind::Op:
          rb.site(n->site);
          if (!lowerOp(*n)) return false;
          break;
        case SymNodeKind::Loop: {
          std::int64_t begin = 0;
          std::int64_t end = 0;
          if (!evalOr(n->begin, begin, "loop begin") ||
              !evalOr(n->end, end, "loop end")) {
            return false;
          }
          const std::int64_t extent =
              n->forward ? end - begin : begin - end + 1;
          if (extent > (std::int64_t{1} << 24)) {
            return fail("loop extent too large: " + std::to_string(extent));
          }
          const auto it = env.vars.find(n->lvar);
          const bool had = it != env.vars.end();
          const std::int64_t saved = had ? it->second : 0;
          bool ok = true;
          if (n->forward) {
            for (std::int64_t v = begin; ok && v < end; ++v) {
              env.vars[n->lvar] = v;
              ok = lowerBody(n->body);
            }
          } else {
            for (std::int64_t v = begin; ok && v >= end; --v) {
              env.vars[n->lvar] = v;
              ok = lowerBody(n->body);
            }
          }
          if (had) {
            env.vars[n->lvar] = saved;
          } else {
            env.vars.erase(n->lvar);
          }
          if (!ok) return false;
          break;
        }
        case SymNodeKind::If: {
          bool holds = false;
          if (!evalGuard(n->guard, env, holds)) {
            return fail("cannot evaluate guard: " + toString(n->guard));
          }
          if (holds && !lowerBody(n->body)) return false;
          break;
        }
      }
    }
    return true;
  }

  double ns_per_flop = 0.5;
};

}  // namespace

bool familyAdmits(const SymSkeleton& s, int nprocs, std::string* why) {
  if (nprocs < s.min_procs) {
    if (why != nullptr) {
      *why = "P=" + std::to_string(nprocs) + " below min-procs " +
             std::to_string(s.min_procs);
    }
    return false;
  }
  Env env;
  env.r = 0;
  env.P = nprocs;
  bool holds = false;
  if (!evalGuard(s.family, env, holds)) {
    if (why != nullptr) {
      *why = "cannot evaluate family guard: " + toString(s.family);
    }
    return false;
  }
  if (!holds && why != nullptr) {
    *why = "P=" + std::to_string(nprocs) +
           " outside the family: " + toString(s.family);
  }
  return holds;
}

std::string lowerRank(const SymSkeleton& s, RankBuilder& rb) {
  Lowering lower{.rb = rb, .env = {}, .open = {}, .error = {}};
  lower.env.r = rb.rank();
  lower.env.P = rb.nranks();
  lower.ns_per_flop = s.ns_per_flop;
  if (!lower.lowerBody(s.body)) return lower.error;
  if (!lower.open.empty()) {
    return "template leaves requests open (missing waitall)";
  }
  return {};
}

InstantiateResult instantiate(const SymSkeleton& s, int nprocs) {
  InstantiateResult out;
  std::string why;
  if (!familyAdmits(s, nprocs, &why)) {
    out.error = why;
    return out;
  }
  const std::string invalid = validateSym(s);
  if (!invalid.empty()) {
    out.error = "invalid symbolic skeleton: " + invalid;
    return out;
  }
  Builder b(s.name, nprocs);
  for (Rank r = 0; r < nprocs; ++r) {
    const std::string why = lowerRank(s, b.rank(r));
    if (!why.empty()) {
      out.error = "rank " + std::to_string(r) + ": " + why;
      return out;
    }
  }
  out.skeleton = b.take();
  const std::string err = out.skeleton.validate();
  if (!err.empty()) {
    out.error = "instantiated skeleton invalid: " + err;
    out.skeleton = Skeleton{};
  }
  return out;
}

}  // namespace ovp::skel::sym
