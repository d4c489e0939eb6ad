// Property tests for the ovprof-skeleton-v1 serializer (skeleton/serialize).
//
// The canonical text form underpins the golden skeletons and
// --write-skeleton/--conform interchange, so the writer and
// the strict parser must stay exact inverses over the WHOLE op vocabulary —
// wildcards, empty waitall sets, RMA nb flags, site labels included.  A
// seeded fuzzer generates random valid skeletons and round-trips them, and
// a seeded line mutator (line_mutator.hpp) corrupts them; rejection tests
// pin the strict-parser behaviour on malformed input (truncated files,
// duplicated sections, trailing garbage).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "line_mutator.hpp"
#include "skeleton/ir.hpp"
#include "skeleton/serialize.hpp"
#include "util/rng.hpp"

namespace ovp {
namespace {

using mpi::kAnySource;
using mpi::kAnyTag;
using skel::kAnyBytes;
using skel::Op;
using skel::OpKind;
using skel::Skeleton;

skel::ParseResult parseString(const std::string& text) {
  std::istringstream is(text);
  return skel::parseSkeleton(is);
}

// Random valid skeleton: every field range validate() accepts, including
// receive wildcards, kAnyBytes payloads, empty Waitall sets, self-RMA, and
// op lines with/without site labels.  Requests are tracked so each one is
// defined once and waited exactly once (Wait or Waitall).
Skeleton fuzzSkeleton(std::uint64_t seed) {
  util::Rng rng(seed);
  Skeleton s;
  s.name = "fuzz" + std::to_string(seed);
  s.nranks = static_cast<int>(rng.range(1, 5));
  s.ranks.resize(static_cast<std::size_t>(s.nranks));
  const auto site = [&]() -> std::string {
    switch (rng.below(3)) {
      case 0: return "";
      case 1: return "fuzz.compute";
      default: return "fuzz.exchange";
    }
  };
  const auto bytes = [&]() -> Bytes {
    return rng.below(5) == 0 ? kAnyBytes
                             : static_cast<Bytes>(rng.range(0, 1 << 20));
  };
  const auto peer = [&](int self, bool allow_self) -> Rank {
    if (s.nranks == 1) return allow_self ? 0 : -1;
    Rank p = 0;
    do {
      p = static_cast<Rank>(rng.below(
          static_cast<std::uint64_t>(s.nranks)));
    } while (!allow_self && p == self);
    return p;
  };
  for (int r = 0; r < s.nranks; ++r) {
    auto& ops = s.ranks[static_cast<std::size_t>(r)].ops;
    int next_req = 0;
    std::vector<int> open;
    const int len = static_cast<int>(rng.range(0, 24));
    for (int i = 0; i < len; ++i) {
      Op op;
      op.site = site();
      switch (rng.below(11)) {
        case 0:
          op.kind = OpKind::Compute;
          op.cost = static_cast<DurationNs>(rng.range(0, 10000));
          break;
        case 1: {
          const Rank p = peer(r, false);
          if (p < 0) continue;
          op.kind = OpKind::Isend;
          op.peer = p;
          op.tag = static_cast<int>(rng.range(0, 99));
          op.bytes = bytes();
          op.req = next_req++;
          open.push_back(op.req);
          break;
        }
        case 2:
          op.kind = OpKind::Irecv;
          op.peer = rng.below(4) == 0 ? kAnySource : peer(r, true);
          op.tag = rng.below(4) == 0 ? kAnyTag
                                     : static_cast<int>(rng.range(0, 99));
          op.bytes = bytes();
          op.req = next_req++;
          open.push_back(op.req);
          break;
        case 3: {
          const Rank p = peer(r, false);
          if (p < 0) continue;
          op.kind = OpKind::Send;
          op.peer = p;
          op.tag = static_cast<int>(rng.range(0, 99));
          op.bytes = bytes();
          break;
        }
        case 4:
          op.kind = OpKind::Recv;
          op.peer = rng.below(4) == 0 ? kAnySource : peer(r, true);
          op.tag = rng.below(4) == 0 ? kAnyTag
                                     : static_cast<int>(rng.range(0, 99));
          op.bytes = bytes();
          break;
        case 5:
          if (open.empty()) continue;
          op.kind = OpKind::Wait;
          op.req = open.back();
          open.pop_back();
          break;
        case 6:
          // Possibly-empty waitall: drains a random prefix of the open set.
          op.kind = OpKind::Waitall;
          {
            const auto keep = rng.below(
                static_cast<std::uint64_t>(open.size()) + 1);
            while (open.size() > keep) {
              op.reqs.push_back(open.back());
              open.pop_back();
            }
          }
          break;
        case 7: {
          const Rank p = peer(r, false);
          if (p < 0) continue;
          op.kind = OpKind::Sendrecv;
          op.peer = p;
          op.tag = static_cast<int>(rng.range(0, 99));
          op.bytes = bytes();
          op.src = rng.below(4) == 0 ? kAnySource : peer(r, true);
          op.rtag = rng.below(4) == 0 ? kAnyTag
                                      : static_cast<int>(rng.range(0, 99));
          op.rbytes = bytes();
          break;
        }
        case 8:
          op.kind = OpKind::Barrier;
          break;
        case 9:
          op.kind = rng.below(2) == 0 ? OpKind::RmaPut : OpKind::RmaGet;
          op.peer = peer(r, true);  // self-RMA is legal
          op.bytes = bytes();
          op.nb = rng.below(2) == 0;
          break;
        default:
          op.kind = OpKind::Fence;
          op.peer = peer(r, true);
          break;
      }
      ops.push_back(std::move(op));
    }
    if (!open.empty()) {
      Op wa;
      wa.kind = OpKind::Waitall;
      for (auto it = open.rbegin(); it != open.rend(); ++it) {
        wa.reqs.push_back(*it);
      }
      ops.push_back(std::move(wa));
    }
  }
  return s;
}

TEST(SkeletonSerialize, FuzzedRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Skeleton s = fuzzSkeleton(seed);
    ASSERT_EQ(s.validate(), "") << "seed " << seed;
    const std::string text = skel::skeletonToString(s);
    const skel::ParseResult parsed = parseString(text);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.error;
    EXPECT_EQ(skel::skeletonToString(parsed.skeleton), text)
        << "seed " << seed;
  }
}

// Seeded line mutants of valid skeletons (the line mutator the trace
// reader's fuzz uses too): the parser never crashes, and whatever it
// accepts passes validate() and prints back to text it parses again.
TEST(SkeletonSerialize, MutatedLinesNeverCrash) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<std::string> lines;
    std::istringstream good(
        skel::skeletonToString(fuzzSkeleton(seed % 20 + 1)));
    for (std::string line; std::getline(good, line);) lines.push_back(line);
    std::string text;
    for (const std::string& line : fuzz::mutateLines(lines, seed, ' ')) {
      text += line + "\n";
    }
    const skel::ParseResult parsed = parseString(text);
    if (!parsed.ok()) continue;
    ++accepted;
    ASSERT_EQ(parsed.skeleton.validate(), "") << "seed " << seed;
    const std::string printed = skel::skeletonToString(parsed.skeleton);
    const skel::ParseResult again = parseString(printed);
    ASSERT_TRUE(again.ok()) << "seed " << seed << ": " << again.error;
    EXPECT_EQ(skel::skeletonToString(again.skeleton), printed)
        << "seed " << seed;
  }
  EXPECT_GT(accepted, 0);
}

TEST(SkeletonSerialize, RoundTripKeepsWildcardsAndEmptyWaitall) {
  Skeleton s;
  s.name = "wild";
  s.nranks = 2;
  s.ranks.resize(2);
  Op irecv;
  irecv.kind = OpKind::Irecv;
  irecv.peer = kAnySource;
  irecv.tag = kAnyTag;
  irecv.bytes = kAnyBytes;
  irecv.req = 0;
  s.ranks[0].ops.push_back(irecv);
  Op wa;
  wa.kind = OpKind::Waitall;
  wa.reqs = {0};
  s.ranks[0].ops.push_back(wa);
  Op empty_wa;
  empty_wa.kind = OpKind::Waitall;
  s.ranks[1].ops.push_back(empty_wa);
  ASSERT_EQ(s.validate(), "");
  const std::string text = skel::skeletonToString(s);
  EXPECT_NE(text.find("irecv src any tag any bytes any req 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("waitall reqs -"), std::string::npos) << text;
  const skel::ParseResult parsed = parseString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(skel::skeletonToString(parsed.skeleton), text);
  EXPECT_EQ(parsed.skeleton.ranks[0].ops[0].peer, kAnySource);
  EXPECT_EQ(parsed.skeleton.ranks[0].ops[0].tag, kAnyTag);
  EXPECT_EQ(parsed.skeleton.ranks[0].ops[0].bytes, kAnyBytes);
  EXPECT_TRUE(parsed.skeleton.ranks[1].ops[0].reqs.empty());
}

TEST(SkeletonSerialize, RejectsTruncatedInput) {
  const std::string good = skel::skeletonToString(fuzzSkeleton(7));
  // Drop the final end.
  const std::string no_final = good.substr(0, good.rfind("end\n"));
  EXPECT_FALSE(parseString(no_final).ok());
  // Drop everything from the middle of the rank list.
  const std::size_t second_rank = good.find("\nrank 1");
  if (second_rank != std::string::npos) {
    EXPECT_FALSE(parseString(good.substr(0, second_rank + 1)).ok());
  }
  // Empty input and header-only input.
  EXPECT_FALSE(parseString("").ok());
  EXPECT_FALSE(parseString("# ovprof-skeleton-v1\n").ok());
}

TEST(SkeletonSerialize, RejectsDuplicatedSections) {
  const std::string good = skel::skeletonToString(fuzzSkeleton(7));
  // Duplicate the rank 0 block: ranks must appear in order 0..nranks-1.
  const std::size_t rank0 = good.find("rank 0\n");
  ASSERT_NE(rank0, std::string::npos);
  std::size_t block_end = good.find("\nrank 1", rank0);
  if (block_end == std::string::npos) block_end = good.rfind("end\n");
  const std::string block = good.substr(rank0, block_end - rank0 + 1);
  std::string dup = good;
  dup.insert(rank0, block);
  EXPECT_FALSE(parseString(dup).ok());
  // Duplicate the skeleton header line.
  const std::size_t header_end = good.find('\n', good.find("skeleton "));
  std::string two_headers = good;
  two_headers.insert(header_end + 1,
                     good.substr(good.find("skeleton "),
                                 header_end + 1 - good.find("skeleton ")));
  EXPECT_FALSE(parseString(two_headers).ok());
}

TEST(SkeletonSerialize, RejectsGarbageAndFormatViolations) {
  const std::string good = skel::skeletonToString(fuzzSkeleton(7));
  // Content after the final end.
  EXPECT_FALSE(parseString(good + "rank 0\n").ok());
  // Missing format tag.
  EXPECT_FALSE(parseString(good.substr(good.find('\n') + 1)).ok());
  // Unknown op keyword inside a rank block.
  std::string bad_op = good;
  bad_op.insert(bad_op.find("rank 0\n") + 7, "  teleport dst 0\n");
  EXPECT_FALSE(parseString(bad_op).ok());
  // Structurally valid text, semantically invalid skeleton: a request
  // that is never waited must be rejected by the validate() gate.
  EXPECT_FALSE(parseString("# ovprof-skeleton-v1\n"
                           "skeleton leak ranks 2\n"
                           "rank 0\n"
                           "  isend dst 1 tag 0 bytes 8 req 0\n"
                           "end\n"
                           "rank 1\n"
                           "end\n"
                           "end\n")
                   .ok());
}

// ---- validate() rejection messages -----------------------------------
//
// A .skel file is outside input, so validate() is its gate and its message
// is what a user sees.  Every rejection is pinned verbatim, including which
// problem is reported first when there are several.

Op mk(OpKind kind, Rank peer = -1, int req = -1) {
  Op op;
  op.kind = kind;
  op.peer = peer;
  op.req = req;
  return op;
}

/// Three ranks; rank 0 runs `ops`, rank 1 runs `rank1`, rank 2 is empty.
Skeleton threeRanks(std::vector<Op> ops, std::vector<Op> rank1 = {}) {
  Skeleton s;
  s.name = "validate";
  s.nranks = 3;
  s.ranks.resize(3);
  s.ranks[0].ops = std::move(ops);
  s.ranks[1].ops = std::move(rank1);
  return s;
}

TEST(SkeletonValidate, EveryRejectionMessageIsPinned) {
  Op neg_cost = mk(OpKind::Compute);
  neg_cost.cost = -1;
  neg_cost.site = "v.a";
  Op neg_bytes = mk(OpKind::Send, 1);
  neg_bytes.bytes = -2;
  Op neg_tag = mk(OpKind::Recv, 1);
  neg_tag.tag = -2;
  Op sr_dst = mk(OpKind::Sendrecv, 3);
  sr_dst.src = 1;
  Op sr_src = mk(OpKind::Sendrecv, 1);
  sr_src.src = 7;
  Op sr_rbytes = mk(OpKind::Sendrecv, 1);
  sr_rbytes.src = kAnySource;
  sr_rbytes.rbytes = -5;
  Op waitall_undef = mk(OpKind::Waitall);
  waitall_undef.reqs = {0, 1};
  Op waitall_twice = mk(OpKind::Waitall);
  waitall_twice.reqs = {0, 0};

  const struct {
    Skeleton skel;
    std::string expected;
  } cases[] = {
      {threeRanks({neg_cost}), "rank 0 op #0 (compute at v.a): negative cost"},
      {threeRanks({neg_bytes}), "rank 0 op #0 (send): negative bytes"},
      {threeRanks({mk(OpKind::Isend, 3, 0)}),
       "rank 0 op #0 (isend): peer out of range"},
      {threeRanks({mk(OpKind::RmaPut, -1)}),
       "rank 0 op #0 (put): peer out of range"},
      {threeRanks({mk(OpKind::Send, 0)}), "rank 0 op #0 (send): self-send"},
      {threeRanks({mk(OpKind::Recv, 3)}),
       "rank 0 op #0 (recv): source out of range"},
      {threeRanks({mk(OpKind::Irecv, -2, 0)}),
       "rank 0 op #0 (irecv): source out of range"},
      {threeRanks({neg_tag}), "rank 0 op #0 (recv): negative tag"},
      {threeRanks({sr_dst}),
       "rank 0 op #0 (sendrecv): sendrecv dst out of range"},
      {threeRanks({sr_src}),
       "rank 0 op #0 (sendrecv): sendrecv src out of range"},
      {threeRanks({sr_rbytes}),
       "rank 0 op #0 (sendrecv): negative sendrecv rbytes"},
      {threeRanks({mk(OpKind::Isend, 1, -1)}),
       "rank 0 op #0 (isend): missing request id"},
      {threeRanks({mk(OpKind::Irecv, 1, 4), mk(OpKind::Isend, 1, 4)}),
       "rank 0 op #1 (isend): request id redefined"},
      {threeRanks({mk(OpKind::Wait, -1, 2)}),
       "rank 0 op #0 (wait): wait on undefined request"},
      {threeRanks({mk(OpKind::Isend, 1, 0), waitall_undef}),
       "rank 0 op #1 (waitall): waitall on undefined request"},
      {threeRanks({mk(OpKind::Isend, 1, 0), mk(OpKind::Wait, -1, 0),
                   mk(OpKind::Wait, -1, 0)}),
       "rank 0 op #2 (wait): request waited twice"},
      {threeRanks({mk(OpKind::Isend, 1, 0), waitall_twice}),
       "rank 0 op #1 (waitall): request waited twice"},
      // A retired id stays defined: posting it again is a redefinition.
      {threeRanks({mk(OpKind::Isend, 1, 0), mk(OpKind::Wait, -1, 0),
                   mk(OpKind::Isend, 1, 0)}),
       "rank 0 op #2 (isend): request id redefined"},
      // Leaks: the lowest never-waited id is the one reported, whether the
      // ids are small, sparse, or both.
      {threeRanks({mk(OpKind::Isend, 1, 3), mk(OpKind::Isend, 1, 1),
                   mk(OpKind::Isend, 1, 2), mk(OpKind::Wait, -1, 2)}),
       "rank 0: request 1 never waited"},
      {threeRanks({mk(OpKind::Isend, 1, 9), mk(OpKind::Isend, 1, 5),
                   mk(OpKind::Irecv, 1, 7), mk(OpKind::Wait, -1, 7)}),
       "rank 0: request 5 never waited"},
      {threeRanks({mk(OpKind::Isend, 1, 50), mk(OpKind::Isend, 1, 60),
                   mk(OpKind::Isend, 1, 70), mk(OpKind::Wait, -1, 70)}),
       "rank 0: request 50 never waited"},
      {threeRanks({mk(OpKind::Isend, 1, 100000), mk(OpKind::Isend, 1, 1),
                   mk(OpKind::Wait, -1, 100000)}),
       "rank 0: request 1 never waited"},
      {threeRanks({mk(OpKind::Isend, 1, 2147483647)}),
       "rank 0: request 2147483647 never waited"},
      // First problem wins: an op problem before the end-of-rank leak
      // check, and rank 0's leak before rank 1's op problem.
      {threeRanks({mk(OpKind::Isend, 1, 0), neg_cost}),
       "rank 0 op #1 (compute at v.a): negative cost"},
      {threeRanks({mk(OpKind::Isend, 1, 0)}, {neg_cost}),
       "rank 0: request 0 never waited"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.skel.validate(), c.expected);
  }

  Skeleton empty;
  EXPECT_EQ(empty.validate(), "nranks must be positive");
  Skeleton short_ranks = threeRanks({});
  short_ranks.nranks = 2;
  EXPECT_EQ(short_ranks.validate(), "ranks size does not match nranks");
}

TEST(SkeletonValidate, AcceptsArbitraryRequestIdsAndWildcards) {
  Op wild = mk(OpKind::Irecv, kAnySource, 7);
  wild.tag = kAnyTag;
  wild.bytes = kAnyBytes;
  Op waitall = mk(OpKind::Waitall);
  waitall.reqs = {2147483647, 7};
  const Skeleton s = threeRanks(
      {mk(OpKind::Isend, 1, 2147483647), wild, mk(OpKind::Isend, 2, 0),
       mk(OpKind::RmaPut, 0), waitall, mk(OpKind::Wait, -1, 0)});
  EXPECT_EQ(s.validate(), "");
}

}  // namespace
}  // namespace ovp
