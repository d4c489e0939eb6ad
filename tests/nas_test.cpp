// Tests for the NAS kernel reproductions: numerical self-verification,
// partition invariance, and the qualitative overlap findings of the
// paper's Sec. 4 (CG > BT, LU high, FT low, SP's Iprobe fix, MG's
// non-blocking ARMCI advantage).
#include <gtest/gtest.h>

#include <cmath>

#include "nas/bt.hpp"
#include "nas/cg.hpp"
#include "nas/common.hpp"
#include "nas/fft.hpp"
#include "nas/ft.hpp"
#include "nas/lu.hpp"
#include "nas/mg.hpp"
#include "nas/skeletons.hpp"
#include "nas/sp.hpp"

namespace ovp::nas {
namespace {

NasParams smallParams(int nranks, Class cls = Class::S) {
  NasParams p;
  p.nranks = nranks;
  p.cls = cls;
  return p;
}

// ---------------------------------------------------------------- common

TEST(Common, BlockDistributeCoversRange) {
  const BlockDist d = blockDistribute(10, 3);
  ASSERT_EQ(d.size.size(), 3u);
  EXPECT_EQ(d.size[0], 4);
  EXPECT_EQ(d.size[1], 3);
  EXPECT_EQ(d.size[2], 3);
  EXPECT_EQ(d.start[0], 0);
  EXPECT_EQ(d.start[1], 4);
  EXPECT_EQ(d.start[2], 7);
}

TEST(Common, Factor2dPrefersSquare) {
  EXPECT_EQ(factor2d(16).px, 4);
  EXPECT_EQ(factor2d(16).py, 4);
  EXPECT_EQ(factor2d(9).px, 3);
  EXPECT_EQ(factor2d(8).px, 2);
  EXPECT_EQ(factor2d(8).py, 4);
  EXPECT_EQ(factor2d(7).px, 1);
}

TEST(Common, Factor3dNearCubic) {
  const Grid3D g8 = factor3d(8);
  EXPECT_EQ(g8.px * g8.py * g8.pz, 8);
  EXPECT_EQ(g8.px, 2);
  EXPECT_EQ(g8.pz, 2);
  const Grid3D g16 = factor3d(16);
  EXPECT_EQ(g16.px * g16.py * g16.pz, 16);
  EXPECT_LE(g16.pz, 4);
  const Grid3D g4 = factor3d(4);
  EXPECT_EQ(g4.px * g4.py * g4.pz, 4);
}

// ------------------------------------------------------------------ FFT

TEST(Fft, MatchesReferenceDft) {
  std::vector<Complex> in(16);
  for (int i = 0; i < 16; ++i) {
    in[static_cast<std::size_t>(i)] = {std::sin(0.3 * i), std::cos(0.7 * i)};
  }
  std::vector<Complex> fast = in;
  fft(fast.data(), 16, -1);
  const auto ref = dftReference(in, -1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(std::abs(fast[static_cast<std::size_t>(i)] -
                         ref[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
  }
}

TEST(Fft, ForwardInverseIsIdentity) {
  std::vector<Complex> in(64);
  for (int i = 0; i < 64; ++i) {
    in[static_cast<std::size_t>(i)] = {0.1 * i, -0.05 * i};
  }
  std::vector<Complex> x = in;
  fft(x.data(), 64, -1);
  fft(x.data(), 64, +1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(i)] / 64.0 -
                         in[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
  }
}

TEST(Fft, StridedTransformsIndependentSequences) {
  // Two interleaved length-8 sequences; transforming one must not touch
  // the other.
  std::vector<Complex> data(16);
  for (int i = 0; i < 8; ++i) {
    data[static_cast<std::size_t>(2 * i)] = {1.0 * i, 0.0};
    data[static_cast<std::size_t>(2 * i + 1)] = {-1.0 * i, 0.5};
  }
  std::vector<Complex> other(8);
  for (int i = 0; i < 8; ++i) other[static_cast<std::size_t>(i)] = data[static_cast<std::size_t>(2 * i + 1)];
  fftStrided(data.data(), 8, 2, -1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(data[static_cast<std::size_t>(2 * i + 1)],
              other[static_cast<std::size_t>(i)]);
  }
}

// ------------------------------------------------------------------- CG

TEST(NasCg, VerifiesOnSmallClass) {
  const NasResult r = runCg(smallParams(4));
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(std::isfinite(r.checksum));
  EXPECT_GT(r.time, 0);
  ASSERT_EQ(r.reports.size(), 4u);
  EXPECT_GT(r.reports[0].whole.total.transfers, 0);
}

TEST(NasCg, ChecksumConsistentAcrossRankCounts) {
  const NasResult a = runCg(smallParams(2));
  const NasResult b = runCg(smallParams(4));
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-6 * std::fabs(a.checksum));
}

TEST(NasCg, RunsUnevenPartition) {
  const NasResult r = runCg(smallParams(3));
  EXPECT_TRUE(r.verified);
}

// ------------------------------------------------------------------- FT

TEST(NasFt, VerifiesParsevalAndChecksum) {
  const NasResult r = runFt(smallParams(4));
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(std::isfinite(r.checksum));
  ASSERT_EQ(r.reports.size(), 4u);
}

TEST(NasFt, ChecksumConsistentAcrossRankCounts) {
  const NasResult a = runFt(smallParams(2));
  const NasResult b = runFt(smallParams(8));
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-6 * (std::fabs(a.checksum) + 1.0));
}

TEST(NasFt, RejectsIndivisibleRankCount) {
  const NasResult r = runFt(smallParams(3));  // 3 does not divide 32
  EXPECT_FALSE(r.verified);
}

// SP reads two ghost planes on each side, and its line solves read two
// points per line, so a block must be at least two cells wide in x and y.
// Class S's 24x24 grid splits over 576 ranks into blocks of one cell: the
// kernel and its skeleton both refuse, and say why.
TEST(NasSp, RejectsBlocksThinnerThanItsGhostPlanes) {
  SpParams p;
  p.nranks = 576;
  const NasResult r = runSp(p);
  EXPECT_FALSE(r.verified);
  EXPECT_NE(r.error.find("thinner than the 2 ghost planes"), std::string::npos)
      << r.error;
  SkeletonParams sp;
  sp.nranks = 576;
  const SkeletonBuildResult built = buildNasSkeleton("sp", sp);
  EXPECT_NE(built.error.find("sp: blocks of 1x1 cells"), std::string::npos)
      << built.error;
  // BT's one ghost plane fits the same 1x1 blocks.
  EXPECT_TRUE(buildNasSkeleton("bt", sp).ok());
}

// ------------------------------------------------------------------- LU

TEST(NasLu, ResidualDropsMonotonically) {
  const NasResult r = runLu(smallParams(4));
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(std::isfinite(r.checksum));
}

TEST(NasLu, RunsOnSixteenRanks) {
  const NasResult r = runLu(smallParams(16));
  EXPECT_TRUE(r.verified);
}

// ------------------------------------------------------------------- SP

TEST(NasSp, VerifiesAndIsPartitionInvariant) {
  SpParams p1;
  p1.nranks = 1;
  p1.cls = Class::S;
  SpParams p4 = p1;
  p4.nranks = 4;
  const NasResult a = runSp(p1);
  const NasResult b = runSp(p4);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  // Line solves perform identical arithmetic regardless of partitioning.
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9 * std::fabs(a.checksum));
}

TEST(NasSp, NineRanksSquareGrid) {
  SpParams p;
  p.nranks = 9;
  p.cls = Class::S;
  const NasResult r = runSp(p);
  EXPECT_TRUE(r.verified);
}

TEST(NasSp, ModifiedVariantPreservesNumerics) {
  SpParams orig;
  orig.nranks = 4;
  orig.cls = Class::S;
  SpParams mod = orig;
  mod.modified = true;
  const NasResult a = runSp(orig);
  const NasResult b = runSp(mod);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-12 * std::fabs(a.checksum))
      << "Iprobe insertion must not change the arithmetic";
}

TEST(NasSp, SectionAppearsInReports) {
  SpParams p;
  p.nranks = 4;
  p.cls = Class::S;
  const NasResult r = runSp(p);
  ASSERT_FALSE(r.reports.empty());
  const auto* sec = r.reports[0].findSection("solve-overlap");
  ASSERT_NE(sec, nullptr);
  EXPECT_GT(sec->total.transfers, 0);
}

// ------------------------------------------------------------------- BT

TEST(NasBt, VerifiesAndIsPartitionInvariant) {
  NasParams p1 = smallParams(1);
  NasParams p4 = smallParams(4);
  const NasResult a = runBt(p1);
  const NasResult b = runBt(p4);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9 * std::fabs(a.checksum));
}

TEST(NasBt, NineRanks) {
  const NasResult r = runBt(smallParams(9));
  EXPECT_TRUE(r.verified);
}

// ------------------------------------------------------------------- MG

class MgVariants : public ::testing::TestWithParam<MgVariant> {};

TEST_P(MgVariants, ConvergesOnSmallClass) {
  MgParams p;
  p.nranks = 4;
  p.cls = Class::S;
  p.variant = GetParam();
  const NasResult r = runMg(p);
  EXPECT_TRUE(r.verified) << "residual ratio too high: " << r.checksum;
  ASSERT_EQ(r.reports.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, MgVariants,
                         ::testing::Values(MgVariant::MpiBlocking,
                                           MgVariant::ArmciBlocking,
                                           MgVariant::ArmciNonBlocking),
                         [](const auto& info) {
                           switch (info.param) {
                             case MgVariant::MpiBlocking: return "Mpi";
                             case MgVariant::ArmciBlocking:
                               return "ArmciBlocking";
                             case MgVariant::ArmciNonBlocking:
                               return "ArmciNonBlocking";
                           }
                           return "unknown";
                         });

TEST(NasMg, ResidualConsistentAcrossVariants) {
  MgParams p;
  p.nranks = 4;
  p.cls = Class::S;
  p.variant = MgVariant::MpiBlocking;
  const NasResult a = runMg(p);
  p.variant = MgVariant::ArmciNonBlocking;
  const NasResult b = runMg(p);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9 * (std::fabs(a.checksum) + 1e-12));
}

TEST(NasMg, ResidualConsistentAcrossRankCounts) {
  MgParams p;
  p.cls = Class::S;
  p.variant = MgVariant::MpiBlocking;
  p.nranks = 1;
  const NasResult a = runMg(p);
  p.nranks = 8;
  const NasResult b = runMg(p);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9 * (std::fabs(a.checksum) + 1e-12));
}

// ------------------------------------- the paper's qualitative findings

TEST(PaperFindings, LuShowsHighOverlap) {
  NasParams p = smallParams(4, Class::S);
  p.preset = mpi::Preset::Mvapich2;  // the paper ran LU on MVAPICH2
  const NasResult r = runLu(p);
  ASSERT_TRUE(r.verified);
  EXPECT_GT(r.maxPct(), 60.0) << "LU should show high overlap potential";
}

TEST(PaperFindings, FtShowsLowOverlap) {
  NasParams p = smallParams(4, Class::S);
  p.preset = mpi::Preset::Mvapich2;
  const NasResult r = runFt(p);
  ASSERT_TRUE(r.verified);
  EXPECT_LT(r.maxPct(), 40.0) << "FT's Alltoall must not overlap";
}

TEST(PaperFindings, CgOverlapExceedsBt) {
  // Class A: BT's boundary messages exceed the pipeline fragment size, so
  // only their first fragments can overlap (Sec. 4.1).
  NasParams p = smallParams(4, Class::A);
  p.preset = mpi::Preset::OpenMpiPipelined;  // the paper's BT/CG setup
  const NasResult cg = runCg(p);
  const NasResult bt = runBt(p);
  ASSERT_TRUE(cg.verified);
  ASSERT_TRUE(bt.verified);
  EXPECT_GT(cg.maxPct(), bt.maxPct())
      << "short-message CG should overlap better than long-message BT";
}

TEST(PaperFindings, SpIprobeFixImprovesSectionOverlap) {
  SpParams orig;
  orig.nranks = 4;
  orig.cls = Class::A;
  orig.preset = mpi::Preset::Mvapich2;  // the paper's SP exercise
  SpParams mod = orig;
  mod.modified = true;
  const NasResult a = runSp(orig);
  const NasResult b = runSp(mod);
  const auto sa = aggregateSection(a.reports, "solve-overlap");
  const auto sb = aggregateSection(b.reports, "solve-overlap");
  ASSERT_GT(sa.transfers, 0);
  ASSERT_GT(sb.transfers, 0);
  EXPECT_GT(sb.maxPct(), sa.maxPct() + 10.0)
      << "the Iprobe modification must raise section overlap";
  EXPECT_GT(sb.minPct(), sa.minPct());
  // And total MPI time must improve (Fig. 18).
  EXPECT_LT(static_cast<double>(b.mpiTime()),
            static_cast<double>(a.mpiTime()));
}

TEST(PaperFindings, MgNonBlockingArmciBeatsBlocking) {
  MgParams p;
  p.nranks = 4;
  p.cls = Class::A;
  p.variant = MgVariant::ArmciBlocking;
  const NasResult blocking = runMg(p);
  p.variant = MgVariant::ArmciNonBlocking;
  const NasResult nb = runMg(p);
  ASSERT_TRUE(blocking.verified);
  ASSERT_TRUE(nb.verified);
  EXPECT_LT(blocking.maxPct(), 10.0)
      << "blocking one-sided ops complete inside their own call";
  EXPECT_GT(nb.maxPct(), 40.0);
  EXPECT_LT(nb.time, blocking.time) << "overlap must buy wall time";
}

TEST(PaperFindings, InstrumentationOverheadIsSmall) {
  // Fig. 20 reports < 0.9% across the NAS suite; our scaled-down runs have
  // a denser call rate per unit virtual time, so allow a little more.
  NasParams p = smallParams(4, Class::A);
  const NasResult inst = runCg(p);
  p.instrument = false;
  const NasResult plain = runCg(p);
  ASSERT_GT(plain.time, 0);
  const double overhead =
      static_cast<double>(inst.time - plain.time) /
      static_cast<double>(plain.time);
  EXPECT_GE(overhead, -0.001);
  EXPECT_LT(overhead, 0.02);
}

}  // namespace
}  // namespace ovp::nas
