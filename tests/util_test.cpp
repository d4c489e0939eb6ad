// Unit tests for the util library: ring buffer, strings, stats, flags,
// tables, RNG determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "util/flags.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace ovp::util {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.pop(), 1);
  rb.push(3);
  rb.push(4);  // wraps
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> rb(3);
  rb.push(10);
  rb.push(20);
  (void)rb.pop();
  rb.push(30);
  rb.push(40);
  EXPECT_EQ(rb.at(0), 20);
  EXPECT_EQ(rb.at(1), 30);
  EXPECT_EQ(rb.at(2), 40);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, FullPredicate) {
  RingBuffer<int> rb(1);
  EXPECT_FALSE(rb.full());
  rb.push(5);
  EXPECT_TRUE(rb.full());
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseIntAcceptsExactIntegers) {
  std::int64_t v = 0;
  EXPECT_TRUE(parseInt("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parseInt(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parseInt("12x", v));
  EXPECT_FALSE(parseInt("", v));
  EXPECT_EQ(v, -7) << "failed parse must leave output untouched";
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parseDouble("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(parseDouble("abc", v));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(humanBytes(10), "10 B");
  EXPECT_EQ(humanBytes(KiB(10)), "10 KB");
  EXPECT_EQ(humanBytes(MiB(1)), "1 MB");
  EXPECT_EQ(humanBytes(KiB(1) + 1), "1025 B");
}

TEST(Strings, HumanDuration) {
  EXPECT_EQ(humanDuration(500), "500 ns");
  EXPECT_EQ(humanDuration(usec(2)), "2.000 us");
  EXPECT_EQ(humanDuration(msec(3)), "3.000 ms");
  EXPECT_EQ(humanDuration(sec(1)), "1.000 s");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  EXPECT_EQ(jsonEscape("plain text"), "plain text");
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, SamplePercentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, RangeStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Flags, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--n=5", "--ratio=0.5", "--verbose",
                        "--name=test"};
  Flags f;
  ASSERT_TRUE(f.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(f.getInt("n", 0), 5);
  EXPECT_DOUBLE_EQ(f.getDouble("ratio", 0), 0.5);
  EXPECT_TRUE(f.getBool("verbose", false));
  EXPECT_EQ(f.getString("name", ""), "test");
  EXPECT_EQ(f.getInt("missing", 17), 17);
  EXPECT_TRUE(f.has("n"));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  Flags f;
  EXPECT_FALSE(f.parse(2, const_cast<char**>(argv)));
}

TEST(Flags, AcceptsModelFlagsAndRejectsTypos) {
  // The model flags are in the reserved --ovprof-* namespace and must be
  // known to the shared parser; near-misses are rejected like any typo.
  const char* good[] = {"prog", "--ovprof-model=run.sample",
                        "--ovprof-model-param=4096"};
  Flags f;
  ASSERT_TRUE(f.parse(3, const_cast<char**>(good)));
  EXPECT_EQ(modelSamplePathRequested(f), "run.sample");
  EXPECT_DOUBLE_EQ(modelParamRequested(f), 4096.0);

  const char* typo[] = {"prog", "--ovprof-model-foo=1"};
  Flags g;
  EXPECT_FALSE(g.parse(2, const_cast<char**>(typo)));
}

TEST(Flags, BareModelFlagGetsDefaultFilename) {
  const char* argv[] = {"prog", "--ovprof-model"};
  Flags f;
  ASSERT_TRUE(f.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(modelSamplePathRequested(f), "ovprof-model.sample");
}

TEST(Flags, ModelFlagsDefaultToUnset) {
  Flags f;
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  // No flag and (in the test environment) no OVPROF_MODEL* env.
  if (std::getenv("OVPROF_MODEL") == nullptr) {
    EXPECT_TRUE(modelSamplePathRequested(f).empty());
  }
  if (std::getenv("OVPROF_MODEL_PARAM") == nullptr) {
    EXPECT_DOUBLE_EQ(modelParamRequested(f), 0.0);
  }
}

TEST(Flags, HelpTextDocumentsEveryModelFlag) {
  const std::string help = ovprofHelpText();
  EXPECT_NE(help.find("--ovprof-model=FILE"), std::string::npos);
  EXPECT_NE(help.find("--ovprof-model-param"), std::string::npos);
  EXPECT_NE(help.find("OVPROF_MODEL"), std::string::npos);
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"a", "long_header"});
  t.addRow({"1", "2"});
  t.addRow({"333", "4"});
  EXPECT_EQ(t.rowCount(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, CsvFormat) {
  TextTable t({"x", "y"});
  t.addRow({"1", "2"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(usec(1), 1000);
  EXPECT_EQ(msec(1), 1000000);
  EXPECT_EQ(sec(1), 1000000000);
  EXPECT_DOUBLE_EQ(toUsec(1500), 1.5);
  EXPECT_EQ(KiB(10), 10240);
  EXPECT_EQ(MiB(1), 1048576);
}

}  // namespace
}  // namespace ovp::util
