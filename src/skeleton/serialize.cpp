#include "skeleton/serialize.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace ovp::skel {

namespace {

// Wildcard spelling shared by writer and parser.
constexpr std::string_view kAny = "any";

void writeNum(std::ostream& os, std::int64_t v, std::int64_t any_sentinel) {
  if (v == any_sentinel) {
    os << kAny;
  } else {
    os << v;
  }
}

void writeOp(std::ostream& os, const Op& op) {
  os << "  " << opKindName(op.kind);
  switch (op.kind) {
    case OpKind::Compute:
      os << ' ' << op.cost;
      break;
    case OpKind::Isend:
      os << " dst " << op.peer << " tag " << op.tag << " bytes ";
      writeNum(os, op.bytes, kAnyBytes);
      os << " req " << op.req;
      break;
    case OpKind::Irecv:
      os << " src ";
      writeNum(os, op.peer, mpi::kAnySource);
      os << " tag ";
      writeNum(os, op.tag, mpi::kAnyTag);
      os << " bytes ";
      writeNum(os, op.bytes, kAnyBytes);
      os << " req " << op.req;
      break;
    case OpKind::Send:
      os << " dst " << op.peer << " tag " << op.tag << " bytes ";
      writeNum(os, op.bytes, kAnyBytes);
      break;
    case OpKind::Recv:
      os << " src ";
      writeNum(os, op.peer, mpi::kAnySource);
      os << " tag ";
      writeNum(os, op.tag, mpi::kAnyTag);
      os << " bytes ";
      writeNum(os, op.bytes, kAnyBytes);
      break;
    case OpKind::Wait:
      os << " req " << op.req;
      break;
    case OpKind::Waitall: {
      os << " reqs ";
      if (op.reqs.empty()) {
        os << '-';
      } else {
        for (std::size_t i = 0; i < op.reqs.size(); ++i) {
          if (i != 0) os << ',';
          os << op.reqs[i];
        }
      }
      break;
    }
    case OpKind::Sendrecv:
      os << " dst " << op.peer << " stag " << op.tag << " sbytes ";
      writeNum(os, op.bytes, kAnyBytes);
      os << " src ";
      writeNum(os, op.src, mpi::kAnySource);
      os << " rtag ";
      writeNum(os, op.rtag, mpi::kAnyTag);
      os << " rbytes ";
      writeNum(os, op.rbytes, kAnyBytes);
      break;
    case OpKind::Barrier:
      break;
    case OpKind::RmaPut:
    case OpKind::RmaGet:
      os << " dst " << op.peer << " bytes ";
      writeNum(os, op.bytes, kAnyBytes);
      os << " nb " << (op.nb ? 1 : 0);
      break;
    case OpKind::Fence:
      os << " dst " << op.peer;
      break;
  }
  if (!op.site.empty()) os << " @ " << op.site;
  os << '\n';
}

// ---- parser ----

struct Cursor {
  std::vector<std::string_view> tokens;
  std::size_t next = 0;
  [[nodiscard]] bool done() const { return next >= tokens.size(); }
  [[nodiscard]] std::string_view take() {
    return done() ? std::string_view{} : tokens[next++];
  }
};

bool parseI64(std::string_view tok, std::int64_t any_sentinel,
              std::int64_t& out) {
  if (tok == kAny) {
    out = any_sentinel;
    return true;
  }
  // Optional '-' then digits; a value outside int64 is rejected.
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return false;
  out = value;
  return true;
}

/// Consumes "key <num>" from the cursor; false on any deviation.
bool expectField(Cursor& c, std::string_view key, std::int64_t any_sentinel,
                 std::int64_t& out) {
  return c.take() == key && parseI64(c.take(), any_sentinel, out);
}

bool parseOpLine(Cursor& c, Op& op) {
  OpKind kind;
  if (!opKindFromName(c.take(), kind)) return false;
  op.kind = kind;
  std::int64_t v = 0;
  switch (kind) {
    case OpKind::Compute:
      if (!parseI64(c.take(), -2, v) || v < 0) return false;
      op.cost = v;
      break;
    case OpKind::Isend:
      if (!expectField(c, "dst", -2, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "tag", -2, v)) return false;
      op.tag = static_cast<int>(v);
      if (!expectField(c, "bytes", kAnyBytes, op.bytes)) return false;
      if (!expectField(c, "req", -2, v)) return false;
      op.req = static_cast<int>(v);
      break;
    case OpKind::Irecv:
      if (!expectField(c, "src", mpi::kAnySource, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "tag", mpi::kAnyTag, v)) return false;
      op.tag = static_cast<int>(v);
      if (!expectField(c, "bytes", kAnyBytes, op.bytes)) return false;
      if (!expectField(c, "req", -2, v)) return false;
      op.req = static_cast<int>(v);
      break;
    case OpKind::Send:
      if (!expectField(c, "dst", -2, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "tag", -2, v)) return false;
      op.tag = static_cast<int>(v);
      if (!expectField(c, "bytes", kAnyBytes, op.bytes)) return false;
      break;
    case OpKind::Recv:
      if (!expectField(c, "src", mpi::kAnySource, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "tag", mpi::kAnyTag, v)) return false;
      op.tag = static_cast<int>(v);
      if (!expectField(c, "bytes", kAnyBytes, op.bytes)) return false;
      break;
    case OpKind::Wait:
      if (!expectField(c, "req", -2, v)) return false;
      op.req = static_cast<int>(v);
      break;
    case OpKind::Waitall: {
      if (c.take() != "reqs") return false;
      const std::string_view list = c.take();
      if (list.empty()) return false;
      if (list != "-") {
        std::size_t start = 0;
        while (start <= list.size()) {
          const std::size_t comma = list.find(',', start);
          const std::string_view item =
              list.substr(start, comma == std::string_view::npos
                                     ? std::string_view::npos
                                     : comma - start);
          if (!parseI64(item, -2, v)) return false;
          op.reqs.push_back(static_cast<int>(v));
          if (comma == std::string_view::npos) break;
          start = comma + 1;
        }
      }
      break;
    }
    case OpKind::Sendrecv:
      if (!expectField(c, "dst", -2, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "stag", -2, v)) return false;
      op.tag = static_cast<int>(v);
      if (!expectField(c, "sbytes", kAnyBytes, op.bytes)) return false;
      if (!expectField(c, "src", mpi::kAnySource, v)) return false;
      op.src = static_cast<Rank>(v);
      if (!expectField(c, "rtag", mpi::kAnyTag, v)) return false;
      op.rtag = static_cast<int>(v);
      if (!expectField(c, "rbytes", kAnyBytes, op.rbytes)) return false;
      break;
    case OpKind::Barrier:
      break;
    case OpKind::RmaPut:
    case OpKind::RmaGet:
      if (!expectField(c, "dst", -2, v)) return false;
      op.peer = static_cast<Rank>(v);
      if (!expectField(c, "bytes", kAnyBytes, op.bytes)) return false;
      if (!expectField(c, "nb", -2, v) || (v != 0 && v != 1)) return false;
      op.nb = v == 1;
      break;
    case OpKind::Fence:
      if (!expectField(c, "dst", -2, v)) return false;
      op.peer = static_cast<Rank>(v);
      break;
  }
  // Optional trailing "@ <site>".
  if (!c.done()) {
    if (c.take() != "@") return false;
    const std::string_view site = c.take();
    if (site.empty()) return false;
    op.site = std::string(site);
  }
  return c.done();
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace

void writeSkeleton(const Skeleton& skel, std::ostream& os) {
  os << kSkeletonFormatTag << '\n';
  os << "skeleton " << (skel.name.empty() ? "unnamed" : skel.name)
     << " ranks " << skel.nranks << '\n';
  for (Rank r = 0; r < skel.nranks; ++r) {
    os << "rank " << r << '\n';
    for (const Op& op : skel.ranks[static_cast<std::size_t>(r)].ops) {
      writeOp(os, op);
    }
    os << "end\n";
  }
  os << "end\n";
}

std::string skeletonToString(const Skeleton& skel) {
  std::ostringstream os;
  writeSkeleton(skel, os);
  return os.str();
}

ParseResult parseSkeleton(std::istream& is) {
  ParseResult result;
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  bool saw_skeleton = false;
  bool closed = false;
  Rank current_rank = -1;  // -1 = outside any rank block
  int ranks_seen = 0;      // closed rank blocks so far

  const auto fail = [&](const std::string& why) {
    result.error = "line " + std::to_string(lineno) + ": " + why;
    return result;
  };

  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (!saw_header && line == kSkeletonFormatTag) saw_header = true;
      continue;
    }
    if (!saw_header) return fail("missing format tag");
    if (closed) return fail("content after final end");
    Cursor c{tokenize(line), 0};
    const std::string_view head = c.take();
    if (!saw_skeleton) {
      std::int64_t nranks = 0;
      if (head != "skeleton" || c.done()) return fail("expected skeleton line");
      result.skeleton.name = std::string(c.take());
      if (!expectField(c, "ranks", -2, nranks) || !c.done() || nranks <= 0 ||
          nranks > 1 << 20) {
        return fail("bad ranks count");
      }
      result.skeleton.nranks = static_cast<int>(nranks);
      result.skeleton.ranks.resize(static_cast<std::size_t>(nranks));
      saw_skeleton = true;
      continue;
    }
    if (current_rank < 0) {
      if (head == "end") {
        if (ranks_seen != result.skeleton.nranks || !c.done()) {
          return fail("final end before all ranks were given");
        }
        closed = true;
        continue;
      }
      std::int64_t r = 0;
      if (head != "rank" || !parseI64(c.take(), -2, r) || !c.done()) {
        return fail("expected rank or end");
      }
      if (r != ranks_seen || r >= result.skeleton.nranks) {
        return fail("ranks must appear in order 0..nranks-1");
      }
      // Empty programs are legal; the block may close immediately.
      current_rank = static_cast<Rank>(r);
      continue;
    }
    if (head == "end" && c.done()) {
      current_rank = -1;
      ++ranks_seen;
      continue;
    }
    c.next = 0;  // re-parse the whole line as an op
    Op op;
    if (!parseOpLine(c, op)) return fail("bad op line");
    result.skeleton.ranks[static_cast<std::size_t>(current_rank)]
        .ops.push_back(std::move(op));
  }
  if (!saw_skeleton) {
    result.error = "empty or truncated skeleton";
    return result;
  }
  if (!closed) {
    result.error = "missing final end";
    return result;
  }
  const std::string validity = result.skeleton.validate();
  if (!validity.empty()) result.error = "invalid skeleton: " + validity;
  return result;
}

ParseResult loadSkeletonFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    ParseResult r;
    r.error = "cannot open " + path;
    return r;
  }
  return parseSkeleton(is);
}

bool saveSkeletonFile(const Skeleton& skel, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  writeSkeleton(skel, os);
  return os.good();
}

}  // namespace ovp::skel
