#include "skeleton/ir.hpp"

#include <cstdint>
#include <optional>
#include <sstream>
#include <string_view>

#include "skeleton/request_table.hpp"

namespace ovp::skel {

const char* opKindName(OpKind k) {
  switch (k) {
    case OpKind::Compute: return "compute";
    case OpKind::Isend: return "isend";
    case OpKind::Irecv: return "irecv";
    case OpKind::Send: return "send";
    case OpKind::Recv: return "recv";
    case OpKind::Wait: return "wait";
    case OpKind::Waitall: return "waitall";
    case OpKind::Sendrecv: return "sendrecv";
    case OpKind::Barrier: return "barrier";
    case OpKind::RmaPut: return "put";
    case OpKind::RmaGet: return "get";
    case OpKind::Fence: return "fence";
  }
  return "?";
}

bool opKindFromName(std::string_view name, OpKind& out) {
  constexpr OpKind kAll[] = {
      OpKind::Compute, OpKind::Isend,    OpKind::Irecv,  OpKind::Send,
      OpKind::Recv,    OpKind::Wait,     OpKind::Waitall, OpKind::Sendrecv,
      OpKind::Barrier, OpKind::RmaPut,   OpKind::RmaGet, OpKind::Fence,
  };
  for (const OpKind k : kAll) {
    if (name == opKindName(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

namespace {

[[nodiscard]] bool sendLike(OpKind k) {
  return k == OpKind::Isend || k == OpKind::Send;
}
[[nodiscard]] bool recvLike(OpKind k) {
  return k == OpKind::Irecv || k == OpKind::Recv;
}

std::string problem(Rank rank, std::size_t index, const Op& op,
                    const char* what) {
  std::ostringstream os;
  os << "rank " << rank << " op #" << index << " (" << opKindName(op.kind)
     << (op.site.empty() ? "" : " at ") << op.site << "): " << what;
  return os.str();
}

}  // namespace

std::string Skeleton::validate() const {
  if (nranks <= 0) return "nranks must be positive";
  if (static_cast<std::size_t>(nranks) != ranks.size()) {
    return "ranks size does not match nranks";
  }
  enum class Req : std::uint8_t { Undefined, Pending, Waited };
  for (Rank r = 0; r < nranks; ++r) {
    const Program& prog = ranks[static_cast<std::size_t>(r)];
    RequestTable<Req> reqs(prog.ops.size(), Req::Undefined);
    // Retires one request; the problem text when that is not allowed.
    const auto retire = [&reqs](int q, const char* undefined) -> const char* {
      switch (reqs.get(q)) {
        case Req::Undefined: return undefined;
        case Req::Waited: return "request waited twice";
        case Req::Pending: break;
      }
      reqs.set(q, Req::Waited);
      return nullptr;
    };
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      const Op& op = prog.ops[i];
      if (op.cost < 0) return problem(r, i, op, "negative cost");
      if (op.bytes < 0 && op.bytes != kAnyBytes) {
        return problem(r, i, op, "negative bytes");
      }
      if (sendLike(op.kind) || op.kind == OpKind::RmaPut ||
          op.kind == OpKind::RmaGet) {
        if (op.peer < 0 || op.peer >= nranks) {
          return problem(r, i, op, "peer out of range");
        }
        if (op.peer == r && op.kind != OpKind::RmaPut &&
            op.kind != OpKind::RmaGet) {
          return problem(r, i, op, "self-send");
        }
      }
      if (recvLike(op.kind)) {
        if (op.peer != mpi::kAnySource && (op.peer < 0 || op.peer >= nranks)) {
          return problem(r, i, op, "source out of range");
        }
        if (op.tag < 0 && op.tag != mpi::kAnyTag) {
          return problem(r, i, op, "negative tag");
        }
      }
      if (op.kind == OpKind::Sendrecv) {
        if (op.peer < 0 || op.peer >= nranks) {
          return problem(r, i, op, "sendrecv dst out of range");
        }
        if (op.src != mpi::kAnySource && (op.src < 0 || op.src >= nranks)) {
          return problem(r, i, op, "sendrecv src out of range");
        }
        if (op.rbytes < 0 && op.rbytes != kAnyBytes) {
          return problem(r, i, op, "negative sendrecv rbytes");
        }
      }
      if (op.kind == OpKind::Isend || op.kind == OpKind::Irecv) {
        if (op.req < 0) return problem(r, i, op, "missing request id");
        if (reqs.get(op.req) != Req::Undefined) {
          return problem(r, i, op, "request id redefined");
        }
        reqs.set(op.req, Req::Pending);
      }
      if (op.kind == OpKind::Wait) {
        if (const char* bad = retire(op.req, "wait on undefined request")) {
          return problem(r, i, op, bad);
        }
      }
      if (op.kind == OpKind::Waitall) {
        for (const int q : op.reqs) {
          if (const char* bad = retire(q, "waitall on undefined request")) {
            return problem(r, i, op, bad);
          }
        }
      }
    }
    // A defined-but-never-waited request is a leak; the dynamic
    // UsageChecker flags the same thing at run time (REQUEST_LEAK).
    if (const std::optional<int> leaked = reqs.lowest(Req::Pending)) {
      std::ostringstream os;
      os << "rank " << r << ": request " << *leaked << " never waited";
      return os.str();
    }
  }
  return "";
}

std::int64_t Skeleton::totalOps() const {
  std::int64_t n = 0;
  for (const Program& p : ranks) n += static_cast<std::int64_t>(p.ops.size());
  return n;
}

}  // namespace ovp::skel
