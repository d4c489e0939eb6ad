// Tests for the static skeleton analyzer (src/skeleton) and the NAS
// skeletons (nas::buildNasSkeleton):
//
//   * seeded-defect fixtures — an unmatched send, a tag mismatch, a
//     rendezvous send/send deadlock, and a zero-compute overlap window —
//     each caught with the expected Diagnostic code, plus the matching
//     negative controls (the corrected program comes back clean);
//   * serialization: canonical text round-trips losslessly and building
//     the same skeleton twice is bit-identical;
//   * golden skeletons for every NAS kernel (class S, 4 ranks) under
//     tests/golden/, regenerable with OVPROF_REGOLD=1;
//   * conformance: a live traced run embeds into the matching skeleton and
//     is rejected by a skeleton that cannot produce its edges; the unrolled
//     LU/SP/BT skeletons pair exactly the messages their kernels send.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "line_mutator.hpp"
#include "mpi/machine.hpp"
#include "nas/bt.hpp"
#include "nas/cg.hpp"
#include "nas/ep.hpp"
#include "nas/ft.hpp"
#include "nas/is.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/skeletons.hpp"
#include "nas/sp.hpp"
#include "skeleton/builder.hpp"
#include "skeleton/check.hpp"
#include "skeleton/serialize.hpp"
#include "tool_main.hpp"

namespace ovp {
namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

bool hasCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// A small calibration table so the overlap-window pass has prices.
overlap::XferTimeTable testTable() {
  overlap::XferTimeTable t;
  t.add(8, 1000);
  t.add(1024, 5000);
  t.add(65536, 60000);
  return t;
}

// ---- seeded-defect fixtures ------------------------------------------

// Rank 0 sends a message no rank ever receives.
skel::Skeleton unmatchedSendFixture() {
  skel::Builder b("fixture.unmatched_send", 2);
  b.rank(0).site("fix.main");
  const int s = b.rank(0).isend(1, 5, 64);
  b.rank(0).wait(s);
  b.rank(1).compute(10);
  return b.take();
}

// Send tag 5 against a receive posted with tag 6 on the same channel.
skel::Skeleton tagMismatchFixture() {
  skel::Builder b("fixture.tag_mismatch", 2);
  b.rank(0).site("fix.main");
  b.rank(0).send(1, 5, 64);
  b.rank(1).site("fix.main");
  b.rank(1).recv(0, 6, 64);
  return b.take();
}

// Two rendezvous-size blocking sends head-to-head: the classic exchange
// deadlock (each send completes only when the other rank posts its
// receive, which it never reaches).
skel::Skeleton sendSendDeadlockFixture(Bytes bytes) {
  skel::Builder b("fixture.send_send", 2);
  for (Rank r = 0; r < 2; ++r) {
    b.rank(r).site("fix.exchange");
    b.rank(r).send(1 - r, 7, bytes);
    b.rank(r).recv(1 - r, 7, bytes);
  }
  return b.take();
}

// A nonblocking send waited immediately, with zero compute in the window.
skel::Skeleton serializedWindowFixture(bool with_compute) {
  skel::Builder b("fixture.window", 2);
  b.rank(0).site("fix.xfer");
  const int s = b.rank(0).isend(1, 9, 1024);
  if (with_compute) b.rank(0).compute(1000000);
  b.rank(0).wait(s);
  b.rank(1).site("fix.xfer");
  b.rank(1).recv(0, 9, 1024);
  return b.take();
}

// The corrected control: matched eager ping-pong, compute in the window.
skel::Skeleton cleanFixture() {
  skel::Builder b("fixture.clean", 2);
  b.rank(0).site("fix.pingpong");
  const int s = b.rank(0).isend(1, 3, 256);
  b.rank(0).compute(1000000);
  b.rank(0).wait(s);
  b.rank(0).recv(1, 4, 256);
  b.rank(1).site("fix.pingpong");
  b.rank(1).recv(0, 3, 256);
  b.rank(1).send(0, 4, 256);
  return b.take();
}

TEST(CheckFixtures, UnmatchedSendCaught) {
  const skel::CheckResult r = skel::runCheck(unmatchedSendFixture());
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticUnmatchedSend));
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.exitCode(), 1);
}

TEST(CheckFixtures, TagMismatchCaught) {
  const skel::CheckResult r = skel::runCheck(tagMismatchFixture());
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticTagMismatch));
  EXPECT_FALSE(r.clean());
}

TEST(CheckFixtures, SizeMismatchCaught) {
  skel::Builder b("fixture.size_mismatch", 2);
  b.rank(0).send(1, 5, 64);
  b.rank(1).recv(0, 5, 128);
  const skel::CheckResult r = skel::runCheck(b.take());
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticSizeMismatch));
}

TEST(CheckFixtures, WildcardRecvNoted) {
  skel::Builder b("fixture.wildcard", 2);
  b.rank(0).send(1, 5, 64);
  b.rank(1).recv(mpi::kAnySource, mpi::kAnyTag, 64);
  const skel::CheckResult r = skel::runCheck(b.take());
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticWildcardRecv));
  EXPECT_TRUE(r.clean()) << "wildcard nondeterminism is a Note, not a gate";
}

TEST(CheckFixtures, RendezvousSendSendDeadlockCaught) {
  const skel::CheckResult r =
      skel::runCheck(sendSendDeadlockFixture(64 * 1024));
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticDeadlock));
  EXPECT_EQ(r.exitCode(), 1);
}

TEST(CheckFixtures, EagerSendSendIsNotADeadlock) {
  // The same exchange under the eager limit completes without the partner:
  // the negative control for the deadlock pass.
  const skel::CheckResult r = skel::runCheck(sendSendDeadlockFixture(512));
  EXPECT_FALSE(hasCode(r.diagnostics, DiagCode::StaticDeadlock));
  EXPECT_TRUE(r.clean());
}

TEST(CheckFixtures, EagerLimitIsConfigurable) {
  skel::CheckConfig cfg;
  cfg.deadlock_cfg.eager_limit = 256;
  const skel::CheckResult r =
      skel::runCheck(sendSendDeadlockFixture(512), cfg);
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticDeadlock));
}

/// Runs sendSendDeadlockFixture's exchange on the simulated library
/// (MVAPICH2 preset, default eager limit): true when the engine reports a
/// simulation deadlock.
bool simulatorDeadlocks(Bytes bytes) {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = mpi::Preset::Mvapich2;
  mpi::Machine machine(cfg);
  try {
    machine.run([&](mpi::Mpi& mpi) {
      std::vector<std::uint8_t> sbuf(static_cast<std::size_t>(bytes));
      std::vector<std::uint8_t> rbuf(static_cast<std::size_t>(bytes));
      const Rank peer = 1 - mpi.rank();
      mpi.send(sbuf.data(), bytes, peer, 7);
      mpi.recv(rbuf.data(), bytes, peer, 7);
    });
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).find("simulation deadlock") !=
           std::string::npos;
  }
  return false;
}

TEST(CheckFixtures, DeadlockAtTheEagerLimitAgreesWithTheSimulator) {
  // The deadlock search predicts the library's eager rule: a send below
  // the limit goes eagerly, one at the limit waits for its receiver.
  for (const Bytes n : {mpi::kEagerLimit - 1, mpi::kEagerLimit,
                        mpi::kEagerLimit + 1}) {
    const bool live = simulatorDeadlocks(n);
    EXPECT_EQ(live, n >= mpi::kEagerLimit) << n << " bytes";
    const skel::CheckResult r = skel::runCheck(sendSendDeadlockFixture(n));
    EXPECT_EQ(hasCode(r.diagnostics, DiagCode::StaticDeadlock), live)
        << n << " bytes";
  }
}

TEST(CheckFixtures, SerializedWindowCaught) {
  skel::CheckConfig cfg;
  cfg.table = testTable();
  const skel::CheckResult r =
      skel::runCheck(serializedWindowFixture(false), cfg);
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::StaticSerializedWindow));
  EXPECT_TRUE(r.clean()) << "window findings are Notes";
  EXPECT_GT(r.windows, 0);
}

TEST(CheckFixtures, ComputeFilledWindowIsNotSerialized) {
  skel::CheckConfig cfg;
  cfg.table = testTable();
  const skel::CheckResult r =
      skel::runCheck(serializedWindowFixture(true), cfg);
  EXPECT_FALSE(hasCode(r.diagnostics, DiagCode::StaticSerializedWindow));
  EXPECT_FALSE(hasCode(r.diagnostics, DiagCode::StaticOverlapShortfall));
}

TEST(CheckFixtures, EmptyTableDisablesWindowPricing) {
  const skel::CheckResult r = skel::runCheck(serializedWindowFixture(false));
  EXPECT_FALSE(hasCode(r.diagnostics, DiagCode::StaticSerializedWindow));
  EXPECT_EQ(r.windows, 0);
}

TEST(CheckFixtures, CleanControlIsClean) {
  skel::CheckConfig cfg;
  cfg.table = testTable();
  const skel::CheckResult r = skel::runCheck(cleanFixture(), cfg);
  EXPECT_TRUE(r.diagnostics.empty())
      << "first: " << r.diagnostics.front().detail;
  EXPECT_EQ(r.exitCode(), 0);
  EXPECT_EQ(r.matched, 2);
  EXPECT_EQ(r.unmatched, 0);
}

// ---- serialization ---------------------------------------------------

TEST(CheckSerialize, RoundTripIsLossless) {
  const skel::Skeleton orig = cleanFixture();
  const std::string text = skel::skeletonToString(orig);
  std::istringstream is(text);
  const skel::ParseResult parsed = skel::parseSkeleton(is);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(skel::skeletonToString(parsed.skeleton), text);
}

TEST(CheckSerialize, ParserRejectsGarbage) {
  std::istringstream is("# ovprof-skeleton-v1\nskeleton x 2\nrank 0\nfrob\n");
  const skel::ParseResult parsed = skel::parseSkeleton(is);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line"), std::string::npos);
}

TEST(CheckSerialize, BuildIsDeterministic) {
  nas::SkeletonParams p;
  const nas::SkeletonBuildResult a = nas::buildNasSkeleton("sp", p);
  const nas::SkeletonBuildResult b = nas::buildNasSkeleton("sp", p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(skel::skeletonToString(a.skeleton),
            skel::skeletonToString(b.skeleton));
}

// ---- NAS builders ----------------------------------------------------

TEST(CheckNas, UnknownKernelIsAnError) {
  const nas::SkeletonBuildResult r = nas::buildNasSkeleton("frob", {});
  EXPECT_FALSE(r.ok());
}

TEST(CheckNas, IndivisibleDecompositionIsAnError) {
  nas::SkeletonParams p;
  p.nranks = 3;  // FT needs nx % P == 0
  const nas::SkeletonBuildResult r = nas::buildNasSkeleton("ft", p);
  EXPECT_FALSE(r.ok());
}

// Seeded mutants of --procs sweep specs: parseProcsSpec never throws,
// names the problem whenever it fails, and what it accepts is a list of
// distinct positive counts.
TEST(ProcsSpec, MutatedLinesNeverCrash) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::string spec =
        fuzz::mutateSpec("2,3,4-16:pow2,6,8-12", seed, ',', '-');
    std::vector<int> counts;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = tool::parseProcsSpec(spec, counts, error)) << spec;
    if (!ok) {
      EXPECT_FALSE(error.empty()) << spec;
      continue;
    }
    ++accepted;
    std::vector<int> seen;
    for (const int n : counts) {
      EXPECT_GE(n, 1) << spec;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), n), 0) << spec;
      seen.push_back(n);
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(CheckNas, EveryKernelValidatesAndChecksClean) {
  for (const std::string& kernel : nas::nasSkeletonKernels()) {
    const nas::SkeletonBuildResult built = nas::buildNasSkeleton(kernel, {});
    ASSERT_TRUE(built.ok()) << kernel << ": " << built.error;
    EXPECT_EQ(built.skeleton.validate(), "") << kernel;
    skel::CheckConfig cfg;
    cfg.table = testTable();
    const skel::CheckResult r = skel::runCheck(built.skeleton, cfg);
    EXPECT_TRUE(r.clean()) << kernel << ": "
                           << (r.diagnostics.empty()
                                   ? std::string("??")
                                   : r.diagnostics.front().detail);
    EXPECT_EQ(r.unmatched, 0) << kernel;
  }
}

// ---- golden skeletons ------------------------------------------------

TEST(CheckGolden, NasSkeletonsMatchGoldens) {
  for (const std::string& kernel : nas::nasSkeletonKernels()) {
    const nas::SkeletonBuildResult built = nas::buildNasSkeleton(kernel, {});
    ASSERT_TRUE(built.ok()) << kernel << ": " << built.error;
    compareOrRegold("skeleton_" + kernel + ".txt",
                    skel::skeletonToString(built.skeleton));
  }
}

TEST(CheckGolden, MgVariantSkeletonsMatchGoldens) {
  for (const char* variant : {"mpi", "armci"}) {
    nas::SkeletonParams p;
    p.variant = variant;
    const nas::SkeletonBuildResult built = nas::buildNasSkeleton("mg", p);
    ASSERT_TRUE(built.ok()) << built.error;
    compareOrRegold(std::string("skeleton_mg_") + variant + ".txt",
                    skel::skeletonToString(built.skeleton));
  }
}

// ---- trace conformance -----------------------------------------------

/// Runs a tiny traced 2-rank job: rank 0 isends 256 B tag 3 to rank 1 and
/// receives 256 B tag 4 back (the dynamic twin of cleanFixture()).
std::shared_ptr<trace::Collector> tracedPingPong() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.trace.enabled = true;
  mpi::Machine machine(cfg);
  machine.run([](mpi::Mpi& mpi) {
    char buf[256] = {};
    if (mpi.rank() == 0) {
      mpi::Request s = mpi.isend(buf, sizeof buf, 1, 3);
      mpi.compute(1000);
      mpi.wait(s);
      mpi.recv(buf, sizeof buf, 1, 4);
    } else {
      mpi.recv(buf, sizeof buf, 0, 3);
      mpi.send(buf, sizeof buf, 0, 4);
    }
  });
  return machine.traceCollector();
}

TEST(CheckConform, MatchingTraceEmbeds) {
  const auto collector = tracedPingPong();
  ASSERT_TRUE(collector);
  const skel::CheckResult r =
      skel::runCheckConform(cleanFixture(), {}, *collector);
  EXPECT_TRUE(r.conform_ran);
  EXPECT_GT(r.conform_edges, 0);
  EXPECT_TRUE(r.clean()) << (r.diagnostics.empty()
                                 ? std::string("??")
                                 : r.diagnostics.front().detail);
}

TEST(CheckConform, ForeignTraceIsRejected) {
  const auto collector = tracedPingPong();
  ASSERT_TRUE(collector);
  // The unmatched-send fixture admits no tag-3/tag-4 exchange at all.
  const skel::CheckResult r =
      skel::runCheckConform(unmatchedSendFixture(), {}, *collector);
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::ConformMismatch));
  EXPECT_EQ(r.exitCode(), 1);
}

TEST(CheckConform, RankCountMismatchIsOneError) {
  const auto collector = tracedPingPong();
  ASSERT_TRUE(collector);
  nas::SkeletonParams p;
  p.nranks = 4;
  const nas::SkeletonBuildResult built = nas::buildNasSkeleton("ep", p);
  ASSERT_TRUE(built.ok());
  const skel::CheckResult r =
      skel::runCheckConform(built.skeleton, {}, *collector);
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::ConformMismatch));
}

// Every skeleton describes the iterations its kernel runs: on 4 ranks,
// every MATCH a traced run records pairs with exactly one static pair, not
// merely an admissible one.  The conformance ctests run class S only, so
// this runs the unrolled LU/SP/BT skeletons at class A and the instantiated
// templates (MG as its MPI variant) at classes A and B.
TEST(CheckConform, SkeletonsCountTheKernelsMessages) {
  std::vector<std::pair<std::string, nas::Class>> cases = {
      {"lu", nas::Class::A}, {"sp", nas::Class::A}, {"bt", nas::Class::A}};
  for (const nas::Class cls : {nas::Class::A, nas::Class::B}) {
    for (const char* kernel : {"cg", "ep", "is", "ft", "mg"}) {
      cases.emplace_back(kernel, cls);
    }
  }
  for (const auto& [kernel, cls] : cases) {
    const std::string what =
        kernel + (cls == nas::Class::A ? " class A" : " class B");
    nas::SpParams run;
    run.nranks = 4;
    run.cls = cls;
    run.trace.enabled = true;
    nas::MgParams mg;
    static_cast<nas::NasParams&>(mg) = run;
    mg.variant = nas::MgVariant::MpiBlocking;
    const nas::NasResult result = kernel == "lu"   ? nas::runLu(run)
                                  : kernel == "sp" ? nas::runSp(run)
                                  : kernel == "bt" ? nas::runBt(run)
                                  : kernel == "cg" ? nas::runCg(run)
                                  : kernel == "ep" ? nas::runEp(run)
                                  : kernel == "is" ? nas::runIs(run)
                                  : kernel == "ft" ? nas::runFt(run)
                                                   : nas::runMg(mg);
    ASSERT_TRUE(result.trace) << what;
    nas::SkeletonParams p;
    p.nranks = 4;
    p.cls = cls;
    p.variant = "mpi";
    const nas::SkeletonBuildResult built = nas::buildNasSkeleton(kernel, p);
    ASSERT_TRUE(built.ok()) << what << ": " << built.error;
    const skel::CheckResult r =
        skel::runCheckConform(built.skeleton, {}, *result.trace);
    EXPECT_TRUE(r.clean()) << what;
    EXPECT_GT(r.conform_edges, 0) << what;
    EXPECT_EQ(r.matched, r.conform_edges) << what;
  }
}

}  // namespace
}  // namespace ovp
