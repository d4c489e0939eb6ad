// Tests for the a-priori transfer-time table and message-size classes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "overlap/size_classes.hpp"
#include "overlap/xfer_table.hpp"

namespace ovp::overlap {
namespace {

TEST(XferTable, EmptyLookupIsZero) {
  XferTimeTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.lookup(100), 0);
}

TEST(XferTable, ExactPointLookup) {
  XferTimeTable t;
  t.add(1024, 2000);
  t.add(2048, 3500);
  EXPECT_EQ(t.lookup(1024), 2000);
  EXPECT_EQ(t.lookup(2048), 3500);
}

TEST(XferTable, LinearInterpolationBetweenPoints) {
  // t = s is a pure power law, so log-log interpolation reproduces the
  // straight line exactly.
  XferTimeTable t;
  t.add(1000, 1000);
  t.add(3000, 3000);
  EXPECT_EQ(t.lookup(2000), 2000);
  EXPECT_EQ(t.lookup(1500), 1500);
}

TEST(XferTable, InteriorInterpolationIsLogLogExactOnPowerLaws) {
  // t = 2 * s^1.5: linear interpolation between decade-spaced points would
  // overprice the inside of each segment badly; log-log is exact.
  XferTimeTable t;
  auto pl = [](Bytes s) {
    return static_cast<DurationNs>(
        std::llround(2.0 * std::pow(static_cast<double>(s), 1.5)));
  };
  t.add(1000, pl(1000));
  t.add(100000, pl(100000));
  for (const Bytes s : {Bytes{3000}, Bytes{10000}, Bytes{40000}}) {
    EXPECT_NEAR(static_cast<double>(t.lookup(s)),
                static_cast<double>(pl(s)),
                static_cast<double>(pl(s)) * 1e-3 + 1.0)
        << "size " << s;
    EXPECT_FALSE(t.lookupEx(s).extrapolated());
  }
  // By contrast the linear chord at the geometric midpoint is ~38% high.
  const double chord =
      (static_cast<double>(pl(1000)) + static_cast<double>(pl(100000))) / 2.0;
  EXPECT_GT(chord, static_cast<double>(pl(10000)) * 1.3);
}

TEST(XferTable, InteriorFallsBackToLinearOnZeroEndpoint) {
  // A zero-time calibration point has no log-log image; the segment
  // degrades to the old linear rule instead of NaN.
  XferTimeTable t;
  t.add(1000, 0);
  t.add(3000, 2000);
  EXPECT_EQ(t.lookup(2000), 1000);
  EXPECT_FALSE(t.lookupEx(2000).extrapolated());
}

TEST(XferTable, LookupExFlagsExtrapolation) {
  XferTimeTable t;
  t.add(1000, 1500);
  t.add(2000, 2500);
  // Interior and exact-point lookups are measurements, not estimates.
  EXPECT_FALSE(t.lookupEx(1000).extrapolated());
  EXPECT_FALSE(t.lookupEx(1500).extrapolated());
  EXPECT_FALSE(t.lookupEx(2000).extrapolated());
  const XferTimeTable::Lookup below = t.lookupEx(500);
  EXPECT_TRUE(below.below_range);
  EXPECT_FALSE(below.above_range);
  EXPECT_TRUE(below.extrapolated());
  const XferTimeTable::Lookup above = t.lookupEx(4000);
  EXPECT_TRUE(above.above_range);
  EXPECT_FALSE(above.below_range);
  EXPECT_EQ(above.time, t.lookup(4000));
}

TEST(XferTable, LookupExSinglePointFlagsBothSides) {
  XferTimeTable t;
  t.add(1000, 500);
  EXPECT_FALSE(t.lookupEx(1000).extrapolated());
  EXPECT_TRUE(t.lookupEx(999).below_range);
  EXPECT_TRUE(t.lookupEx(1001).above_range);
}

TEST(XferTable, LookupExEmptyAndNonPositiveAreUnflagged) {
  XferTimeTable empty;
  EXPECT_FALSE(empty.lookupEx(100).extrapolated());
  XferTimeTable t;
  t.add(100, 100);
  EXPECT_FALSE(t.lookupEx(0).extrapolated());
  EXPECT_FALSE(t.lookupEx(-5).extrapolated());
}

TEST(XferTable, ExtrapolationAboveUsesLastSegmentBandwidth) {
  XferTimeTable t;
  t.add(1000, 2000);
  t.add(2000, 3000);  // slope 1 ns/B on the last segment
  EXPECT_EQ(t.lookup(4000), 3000 + 2000);
}

TEST(XferTable, ExtrapolationBelowFollowsFirstSegmentLine) {
  XferTimeTable t;
  t.add(1000, 1500);
  t.add(2000, 2500);  // line: 500 + size
  EXPECT_EQ(t.lookup(500), 1000);
}

TEST(XferTable, ExtrapolationBelowNeverNegative) {
  XferTimeTable t;
  t.add(1000, 10);
  t.add(2000, 2000);  // steep line crosses zero above size 0
  EXPECT_GE(t.lookup(1), 0);
}

TEST(XferTable, SinglePointScalesByBandwidth) {
  XferTimeTable t;
  t.add(1000, 500);
  EXPECT_EQ(t.lookup(2000), 1000);
  EXPECT_EQ(t.lookup(500), 250);
}

TEST(XferTable, NonPositiveSizeIsZero) {
  XferTimeTable t;
  t.add(100, 100);
  EXPECT_EQ(t.lookup(0), 0);
  EXPECT_EQ(t.lookup(-5), 0);
}

TEST(XferTable, AddReplacesSameSize) {
  XferTimeTable t;
  t.add(100, 100);
  t.add(100, 999);
  EXPECT_EQ(t.points(), 1u);
  EXPECT_EQ(t.lookup(100), 999);
}

TEST(XferTable, UnsortedInsertionIsSorted) {
  XferTimeTable t;
  t.add(3000, 3000);
  t.add(1000, 1000);
  t.add(2000, 2000);
  EXPECT_EQ(t.lookup(1500), 1500);
}

TEST(XferTable, SaveLoadRoundTrip) {
  XferTimeTable t;
  t.add(64, 1600);
  t.add(1024, 2600);
  t.add(1048576, 1050000);
  std::stringstream ss;
  t.save(ss);
  XferTimeTable u;
  ASSERT_TRUE(u.load(ss));
  EXPECT_EQ(u.points(), 3u);
  EXPECT_EQ(u.lookup(64), 1600);
  EXPECT_EQ(u.lookup(1048576), 1050000);
}

TEST(XferTable, LoadSkipsCommentsAndBlanks) {
  std::stringstream ss("# header\n\n100 200\n  # another\n300 400\n");
  XferTimeTable t;
  ASSERT_TRUE(t.load(ss));
  EXPECT_EQ(t.points(), 2u);
}

TEST(XferTable, LoadRejectsMalformedLines) {
  XferTimeTable t;
  std::stringstream bad1("100 abc\n");
  EXPECT_FALSE(t.load(bad1));
  std::stringstream bad2("100\n");
  EXPECT_FALSE(t.load(bad2));
  std::stringstream bad3("100 200 300\n");
  EXPECT_FALSE(t.load(bad3));
  std::stringstream bad4("-4 200\n");
  EXPECT_FALSE(t.load(bad4));
}

TEST(XferTable, FileRoundTrip) {
  XferTimeTable t;
  t.add(10, 20);
  const std::string path = ::testing::TempDir() + "/ovp_xfer_table_test.txt";
  ASSERT_TRUE(t.saveFile(path));
  XferTimeTable u;
  ASSERT_TRUE(u.loadFile(path));
  EXPECT_EQ(u.lookup(10), 20);
  EXPECT_FALSE(u.loadFile(path + ".does-not-exist"));
}

TEST(SizeClasses, SingleClassCatchesEverything) {
  const SizeClasses c = SizeClasses::single();
  EXPECT_EQ(c.count(), 1);
  EXPECT_EQ(c.classOf(0), 0);
  EXPECT_EQ(c.classOf(1 << 30), 0);
  EXPECT_EQ(c.label(0), "all");
}

TEST(SizeClasses, ShortLongSplit) {
  const SizeClasses c = SizeClasses::shortLong(1024);
  EXPECT_EQ(c.count(), 2);
  EXPECT_EQ(c.classOf(0), 0);
  EXPECT_EQ(c.classOf(1023), 0);
  EXPECT_EQ(c.classOf(1024), 1);  // threshold itself is "long"
  EXPECT_EQ(c.classOf(1 << 20), 1);
  EXPECT_EQ(c.label(0), "<1 KB");
  EXPECT_EQ(c.label(1), ">=1 KB");
}

TEST(SizeClasses, PowersOfTwoBins) {
  // Bounds {1024, 2048, 4096} -> 4 classes.
  const SizeClasses c = SizeClasses::fromBounds({1024, 2048, 4096});
  EXPECT_EQ(c.count(), 4);
  EXPECT_EQ(c.classOf(512), 0);
  EXPECT_EQ(c.classOf(1024), 1);
  EXPECT_EQ(c.classOf(2047), 1);
  EXPECT_EQ(c.classOf(2048), 2);
  EXPECT_EQ(c.classOf(4096), 3);
  EXPECT_EQ(c.label(1), "[1 KB,2 KB)");
}

TEST(SizeClasses, ClassOfIsTotal) {
  std::vector<Bytes> bounds;
  for (Bytes b = 64; b <= Bytes{1} << 22; b *= 2) bounds.push_back(b);
  const SizeClasses c = SizeClasses::fromBounds(std::move(bounds));
  for (Bytes s : {Bytes{0}, Bytes{1}, Bytes{63}, Bytes{64}, Bytes{1 << 22},
                  Bytes{1 << 26}}) {
    const int k = c.classOf(s);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, c.count());
  }
}

}  // namespace
}  // namespace ovp::overlap
