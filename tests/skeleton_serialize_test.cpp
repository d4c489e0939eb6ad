// Property tests for the ovprof-skeleton-v1 serializer (skeleton/serialize).
//
// The canonical text form underpins the golden skeletons and
// --write-skeleton/--conform interchange, so the writer and
// the strict parser must stay exact inverses over the WHOLE op vocabulary —
// wildcards, empty waitall sets, RMA nb flags, site labels included.  A
// seeded fuzzer generates random valid skeletons and round-trips them;
// rejection tests pin the strict-parser behaviour on malformed input
// (truncated files, duplicated sections, trailing garbage).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "skeleton/ir.hpp"
#include "skeleton/serialize.hpp"
#include "util/rng.hpp"

namespace ovp {
namespace {

using skel::kAnyBytes;
using skel::kAnySource;
using skel::kAnyTag;
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

}  // namespace
}  // namespace ovp
