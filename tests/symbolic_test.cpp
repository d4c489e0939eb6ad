// Tests for the rank-symbolic skeleton layer (src/skeleton/symbolic):
// the all-P matching/deadlock proofs, the closed-form cost terms (checked
// against an independent interpreter and the instantiated skeletons), the
// grid evaluators and the template goldens.  The converted kernels'
// instantiated skeletons themselves are pinned by check_test's
// skeleton_*.txt goldens and the trace-conformance ctests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nas/common.hpp"
#include "nas/skeletons.hpp"
#include "nas/symbolic.hpp"
#include "skeleton/symbolic/builder.hpp"
#include "skeleton/symbolic/cost.hpp"
#include "skeleton/symbolic/expr.hpp"
#include "skeleton/symbolic/instantiate.hpp"
#include "skeleton/symbolic/verify.hpp"
#include "util/rng.hpp"

namespace ovp {
namespace {

using nas::SkeletonParams;
using skel::sym::Env;
using skel::sym::familyAdmits;
using skel::sym::instantiate;

// Draws admissible rank counts for `kernel`, mixing powers of two with
// arbitrary counts so non-pow2 family members get exercised too.
std::vector<int> sampleProcs(const skel::sym::SymSkeleton& s, int want,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < want && guard < 10000) {
    ++guard;
    const int p = rng.below(2) == 0
                      ? (1 << rng.range(0, 7))
                      : static_cast<int>(rng.range(1, 65));
    if (!familyAdmits(s, p, nullptr)) continue;
    bool dup = false;
    for (const int q : out) dup = dup || q == p;
    if (!dup) out.push_back(p);
  }
  return out;
}

// ---- matching / deadlock provers ----

TEST(SymbolicVerify, ProvesAllConvertedKernels) {
  std::vector<std::pair<std::string, std::string>> cases;
  for (const auto& kernel : nas::nasSymbolicKernels()) {
    if (kernel == "mg") continue;
    cases.emplace_back(kernel, "");
  }
  cases.emplace_back("mg", "mpi");
  cases.emplace_back("mg", "armci");
  cases.emplace_back("mg", "armci-nb");
  for (const auto& [kernel, variant] : cases) {
    SkeletonParams p;
    p.variant = variant;
    const auto sym = nas::buildNasSymSkeleton(kernel, p);
    ASSERT_TRUE(sym.ok()) << kernel << ": " << sym.error;
    const auto v = skel::sym::verifySymbolic(sym.skeleton);
    EXPECT_TRUE(v.matching_proven)
        << kernel << "/" << variant << " matching not proven";
    EXPECT_TRUE(v.deadlock_proven)
        << kernel << "/" << variant << " deadlock-freedom not proven";
    EXPECT_TRUE(v.clean()) << kernel << "/" << variant << " first: "
                           << (v.diagnostics.empty()
                                   ? std::string("-")
                                   : v.diagnostics.front().toString());
  }
}

TEST(SymbolicVerify, UnmatchedRingSendIsAnError) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("bad-ring");
  b.site("bad.ring");
  b.loop("d", cst(1), procs(), [&] {
    b.isend(mod(add(rnk(), var("d")), procs()), cst(7), cst(64));
  });
  b.waitall();
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.matching_proven);
  bool found = false;
  for (const auto& d : v.diagnostics) {
    found = found || d.code == analysis::DiagCode::SymUnmatchedSend;
  }
  EXPECT_TRUE(found);
}

TEST(SymbolicVerify, BlockingExchangeNamesTheDeadlockFamily) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("head-to-head");
  b.minProcs(2);
  b.site("bad.exchange");
  // Every rank: rendezvous-sized blocking send "right", then recv "left".
  // Classic head-to-head: a blocking cycle at every rank count >= 2.
  const ExprP big = cst(1 << 20);
  b.send(mod(add(rnk(), cst(1)), procs()), cst(9), big);
  b.recv(mod(add(sub(rnk(), cst(1)), procs()), procs()), cst(9), big);
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.deadlock_proven);
  bool cycle = false;
  std::string family;
  for (const auto& d : v.diagnostics) {
    if (d.code == analysis::DiagCode::SymDeadlockCycle) {
      cycle = true;
      family = d.detail;
    }
  }
  ASSERT_TRUE(cycle);
  EXPECT_NE(family.find("every admissible rank count sampled"),
            std::string::npos)
      << family;
}

TEST(SymbolicVerify, RankGuardedBarrierDiverges) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("guarded-barrier");
  b.site("bad.barrier");
  b.guarded({Cond{rnk(), CmpOp::Eq, cst(0)}}, [&] { b.barrier(); });
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.deadlock_proven);
  bool diverged = false;
  for (const auto& d : v.diagnostics) {
    diverged =
        diverged || d.code == analysis::DiagCode::SymBarrierDivergence;
  }
  EXPECT_TRUE(diverged);
}

TEST(SymbolicVerify, ByteMismatchedRingIsReported) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("bad-bytes");
  b.site("bad.bytes");
  b.loop("d", cst(1), procs(), [&] {
    b.irecv(mod(add(rnk(), var("d")), procs()), cst(5), cst(128));
  });
  b.loop("e", cst(1), procs(), [&] {
    b.isend(mod(add(rnk(), var("e")), procs()), cst(5), cst(64));
  });
  b.waitall();
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.matching_proven);
  bool mismatch = false;
  for (const auto& d : v.diagnostics) {
    mismatch = mismatch || d.code == analysis::DiagCode::SymMatchMismatch;
  }
  EXPECT_TRUE(mismatch);
}

// ---- closed-form cost terms ----

// The extracted closed forms must agree exactly with (a) an independent
// interpreter walking the template concretely per rank, and (b) the
// instantiated skeleton's op tallies — at every sampled job size.
TEST(SymbolicCost, ClosedFormsMatchInterpreterAndInstantiation) {
  for (const auto& kernel : nas::nasSymbolicKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel << ": " << sym.error;
    const auto report = skel::sym::extractCosts(sym.skeleton);
    EXPECT_EQ(report.skeleton, sym.skeleton.name);
    EXPECT_FALSE(report.sites.empty()) << kernel;
    for (const int nprocs : sampleProcs(sym.skeleton, 4, 0xc057)) {
      std::map<std::string, skel::sym::SiteCostValues> tally;
      std::string err;
      ASSERT_TRUE(skel::sym::tallyCosts(sym.skeleton, nprocs, &tally, &err))
          << kernel << " P=" << nprocs << ": " << err;
      for (const auto& t : report.sites) {
        skel::sym::SiteCostValues got;
        ASSERT_TRUE(skel::sym::evalSiteCost(t, nprocs, &got))
            << kernel << " P=" << nprocs << " site " << t.site;
        const auto& want = tally[t.site];
        EXPECT_EQ(got.msgs, want.msgs)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.bytes, want.bytes)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.flops, want.flops)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.window_flops, want.window_flops)
            << kernel << " P=" << nprocs << " site " << t.site;
      }
      // Anchor msgs/bytes to the instantiated (unrolled) skeleton.
      const auto inst = instantiate(sym.skeleton, nprocs);
      ASSERT_TRUE(inst.ok()) << kernel << " P=" << nprocs;
      const auto conc = skel::sym::tallyConcrete(inst.skeleton);
      for (const auto& t : report.sites) {
        skel::sym::SiteCostValues got;
        ASSERT_TRUE(skel::sym::evalSiteCost(t, nprocs, &got));
        const auto it = conc.find(t.site);
        const std::int64_t cmsgs = it == conc.end() ? 0 : it->second.msgs;
        const std::int64_t cbytes = it == conc.end() ? 0 : it->second.bytes;
        EXPECT_EQ(got.msgs, cmsgs)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.bytes, cbytes)
            << kernel << " P=" << nprocs << " site " << t.site;
      }
    }
  }
}

TEST(SymbolicCost, SymskelRoundTripsExactly) {
  for (const auto& kernel : nas::nasSymbolicKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel;
    const auto report = skel::sym::extractCosts(sym.skeleton);
    const std::string text = skel::sym::costsToString(report);
    skel::sym::SymCostReport back;
    std::string err;
    ASSERT_TRUE(skel::sym::parseCosts(text, &back, &err))
        << kernel << ": " << err;
    EXPECT_EQ(skel::sym::costsToString(back), text) << kernel;
  }
}

TEST(SymbolicCost, StrictParserRejectsMalformedInput) {
  const auto sym = nas::buildNasSymSkeleton("cg", {});
  ASSERT_TRUE(sym.ok());
  const std::string good = skel::sym::costsToString(
      skel::sym::extractCosts(sym.skeleton));
  skel::sym::SymCostReport r;
  std::string err;
  ASSERT_TRUE(skel::sym::parseCosts(good, &r, &err)) << err;

  // Truncation: drop the 'end' terminator (and anything after it).
  const std::string truncated = good.substr(0, good.rfind("end\n"));
  EXPECT_FALSE(skel::sym::parseCosts(truncated, &r, &err));
  // Truncation inside a site block.
  const auto bytes_at = good.find("\nbytes ");
  ASSERT_NE(bytes_at, std::string::npos);
  EXPECT_FALSE(
      skel::sym::parseCosts(good.substr(0, bytes_at + 1) + "end\n", &r, &err));
  // Duplicated site section.
  const auto site_at = good.find("site ");
  const auto site_end = good.find("site ", site_at + 1);
  const std::string block =
      good.substr(site_at, (site_end == std::string::npos
                                ? good.rfind("end\n")
                                : site_end) -
                               site_at);
  EXPECT_FALSE(skel::sym::parseCosts(
      good.substr(0, good.rfind("end\n")) + block + "end\n", &r, &err));
  // Trailing garbage after 'end'.
  EXPECT_FALSE(skel::sym::parseCosts(good + "extra\n", &r, &err));
  // Unknown key where a term is expected.
  std::string mangled = good;
  mangled.replace(mangled.find("msgs "), 5, "mggs ");
  EXPECT_FALSE(skel::sym::parseCosts(mangled, &r, &err));
  // Missing header.
  EXPECT_FALSE(skel::sym::parseCosts(good.substr(good.find('\n') + 1), &r,
                                     &err));
}

// The symbolic layer re-implements the nas grid factorizations as Expr
// node evaluators; pin them to the concrete ones over a wide P range.
TEST(SymbolicGrid, FactorizationsMatchNas) {
  for (int p = 1; p <= 4096; ++p) {
    const auto g2 = skel::sym::symFactor2d(p);
    const auto n2 = nas::factor2d(p);
    EXPECT_EQ(g2.px, n2.px) << "P=" << p;
    EXPECT_EQ(g2.py, n2.py) << "P=" << p;
    const auto g3 = skel::sym::symFactor3d(p);
    const auto n3 = nas::factor3d(p);
    EXPECT_EQ(g3.px, n3.px) << "P=" << p;
    EXPECT_EQ(g3.py, n3.py) << "P=" << p;
    EXPECT_EQ(g3.pz, n3.pz) << "P=" << p;
  }
}

TEST(SymbolicGrid, BlockSizeMatchesBlockDistribute) {
  for (const int n : {1, 7, 1024, 4096, 16385}) {
    for (const int parts : {1, 2, 3, 5, 8, 64}) {
      const auto dist = nas::blockDistribute(n, parts);
      const auto e = skel::sym::blocksize(skel::sym::cst(n),
                                          skel::sym::cst(parts),
                                          skel::sym::var("i"));
      for (int i = 0; i < parts; ++i) {
        Env env;
        env.vars["i"] = i;
        std::int64_t got = 0;
        ASSERT_TRUE(skel::sym::eval(e, env, got));
        EXPECT_EQ(got, dist.size[i]) << "n=" << n << " parts=" << parts
                                     << " i=" << i;
      }
    }
  }
}

// ---- golden templates ----

std::string goldenPath(const std::string& name) {
  return std::string(OVPROF_GOLDEN_DIR) + "/" + name;
}

bool regoldRequested() {
  const char* env = std::getenv("OVPROF_REGOLD");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void compareOrRegold(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (regoldRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(os)) << "cannot write " << path;
    os << actual;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(is))
      << "missing golden file " << path
      << " (regenerate with OVPROF_REGOLD=1)";
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << "; if intentional, regenerate with OVPROF_REGOLD=1";
}

TEST(SymbolicGolden, TemplatesMatchGolden) {
  for (const auto& kernel : nas::nasSymbolicKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel;
    compareOrRegold("symskel_" + kernel + ".txt",
                    skel::sym::symSkeletonToString(sym.skeleton));
  }
}

TEST(SymbolicGolden, CostTermsMatchGolden) {
  const auto sym = nas::buildNasSymSkeleton("cg", {});
  ASSERT_TRUE(sym.ok());
  compareOrRegold("symcost_cg.txt",
                  skel::sym::costsToString(
                      skel::sym::extractCosts(sym.skeleton)));
}

}  // namespace
}  // namespace ovp
