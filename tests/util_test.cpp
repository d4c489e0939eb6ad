// Unit tests for the util library: ring buffer, strings, flags, tables,
// RNG determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
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

// Slots are constructed as the tail first reaches them, up to the
// capacity; these pin the slot logic at every stage of that growth.

TEST(RingBuffer, AtAfterPartialGrowth) {
  RingBuffer<int> rb(1000);
  for (int i = 0; i < 5; ++i) rb.push(i);
  EXPECT_EQ(rb.pop(), 0);
  EXPECT_EQ(rb.pop(), 1);
  rb.push(5);  // appends past the grown slots, head mid-storage
  ASSERT_EQ(rb.size(), 4u);
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb.at(i), static_cast<int>(i) + 2);
  }
  EXPECT_EQ(rb.capacity(), 1000u);
  EXPECT_FALSE(rb.full());
}

TEST(RingBuffer, WrapsAroundAfterGrowingToCapacity) {
  RingBuffer<int> rb(5);
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the tail reaches the cap, wraps, and
  // keeps overwriting the oldest retired slots.
  for (int round = 0; round < 7; ++round) {
    while (!rb.full()) rb.push(next_in++);
    EXPECT_EQ(rb.size(), 5u);
    for (std::size_t i = 0; i < rb.size(); ++i) {
      EXPECT_EQ(rb.at(i), next_out + static_cast<int>(i));
    }
    for (int k = 0; k < 3; ++k) EXPECT_EQ(rb.pop(), next_out++);
  }
  while (!rb.empty()) EXPECT_EQ(rb.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, ClearAfterPartialGrowthReusesSlots) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 3; ++i) rb.push(i);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  // Refill past the previously grown slots and on to full.
  for (int i = 10; i < 18; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(rb.at(i), 10 + static_cast<int>(i));
  }
  rb.clear();
  rb.push(99);
  EXPECT_EQ(rb.front(), 99);
  EXPECT_EQ(rb.size(), 1u);
}

// The whole capacity is allocated at construction, so a written slot never
// moves however far the ring fills (a ring that reallocated as it grew
// would shift the addresses of later allocations, which the simulated
// registration cache sees).
TEST(RingBuffer, SlotsNeverMoveWhileFilling) {
  RingBuffer<int> rb(1000);
  rb.push(-1);
  const int* first = &rb.at(0);
  for (int i = 0; i < 999; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(&rb.at(0), first);
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

// One flag of every kind, plus two framework flags.
constexpr Flag kTestFlags[] = {
    intFlag("n", "N", "how many", 1),
    numberFlag("ratio", "X", "a ratio"),
    switchFlag("verbose", "talk more"),
    textFlag("name", "TEXT", "a name"),
    textFlag("out", "FILE", "where to write", "default.out"),
    oneOfFlag("class", "S|A|B", "problem class"),
    kOvprofModel,
    kOvprofModelParam,
};
constexpr Cli kTestCli = {"prog ARG", "Tests the flag parser.", kTestFlags};

/// Parses `args` (argv[0] included) against kTestCli.
bool parseArgs(Flags& f, std::vector<const char*> args) {
  return f.parse(static_cast<int>(args.size()),
                 const_cast<char**>(args.data()), kTestCli);
}

TEST(Flags, ParsesKeyValueAndBooleans) {
  Flags f;
  ASSERT_TRUE(parseArgs(
      f, {"prog", "--n=5", "--ratio=0.5", "--verbose", "--name=test"}));
  EXPECT_EQ(f.getInt("n", 0), 5);
  EXPECT_DOUBLE_EQ(f.getDouble("ratio", 0), 0.5);
  EXPECT_TRUE(f.getBool("verbose", false));
  EXPECT_EQ(f.getString("name", ""), "test");
  EXPECT_EQ(f.getString("class", "S"), "S");
  EXPECT_TRUE(f.has("n"));
  EXPECT_FALSE(f.has("class"));
  Flags g;
  ASSERT_TRUE(parseArgs(g, {"prog", "--verbose=no", "--class=B"}));
  EXPECT_FALSE(g.getBool("verbose", true));
  EXPECT_EQ(g.getString("class", "S"), "B");
}

TEST(Flags, RejectsPositionalArguments) {
  Flags f;
  EXPECT_FALSE(parseArgs(f, {"prog", "oops"}));
}

TEST(Flags, AcceptsModelFlagsAndRejectsTypos) {
  Flags f;
  ASSERT_TRUE(parseArgs(f, {"prog", "--ovprof-model=run.sample",
                            "--ovprof-model-param=4096"}));
  EXPECT_EQ(f.getString("ovprof-model", ""), "run.sample");
  EXPECT_DOUBLE_EQ(f.getDouble("ovprof-model-param", 0.0), 4096.0);
  Flags g;
  EXPECT_FALSE(parseArgs(g, {"prog", "--ovprof-model-foo=1"}));
}

TEST(Flags, BareModelFlagGetsDefaultFilename) {
  Flags f;
  ASSERT_TRUE(parseArgs(f, {"prog", "--ovprof-model"}));
  EXPECT_EQ(f.getString("ovprof-model", ""), "ovprof-model.sample");
}

TEST(Flags, ModelFlagsDefaultToUnset) {
  Flags f;
  ASSERT_TRUE(parseArgs(f, {"prog"}));
  EXPECT_TRUE(f.getString("ovprof-model", "").empty());
  EXPECT_DOUBLE_EQ(f.getDouble("ovprof-model-param", 0.0), 0.0);
}

TEST(Flags, HelpTextDocumentsEveryModelFlag) {
  const std::string help = usage(kTestCli);
  EXPECT_NE(help.find("--ovprof-model[=FILE]"), std::string::npos);
  EXPECT_NE(help.find("--ovprof-model-param=X"), std::string::npos);
}

TEST(Flags, UsageListsEveryDeclaredFlagWithItsHelpLine) {
  const std::string help = usage(kTestCli);
  EXPECT_EQ(help.rfind("usage: prog ARG [flags]\nTests the flag parser.\n", 0),
            0u)
      << help;
  for (const Flag& flag : kTestFlags) {
    const std::size_t at = help.find("  --" + std::string(flag.name));
    ASSERT_NE(at, std::string::npos) << flag.name;
    // The help line follows the flag, before the next flag's entry.
    const std::size_t text = help.find(flag.help, at);
    ASSERT_NE(text, std::string::npos) << flag.name;
    EXPECT_EQ(help.find("  --", at + 2), help.find("  --", text)) << flag.name;
  }
  EXPECT_NE(help.find("--n=N "), std::string::npos);
  EXPECT_NE(help.find("[N >= 1]"), std::string::npos);
  EXPECT_NE(help.find("--class=S|A|B"), std::string::npos);
  EXPECT_NE(help.find("[bare: default.out]"), std::string::npos);
  EXPECT_NE(help.find("-h, --help"), std::string::npos);
  EXPECT_EQ(usage({"bare", "No flags.", {}}),
            "usage: bare\nNo flags.\n\n"
            "  -h, --help                    print this help and exit\n");
}

TEST(Flags, EachKindRejectsAMalformedValueNamingTheFlag) {
  for (const char* arg :
       {"--n=abc", "--n=0", "--n", "--ratio=fast", "--ratio", "--verbose=maybe",
        "--name", "--class=Z", "--class", "--no-such-flag=1"}) {
    Flags f;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parseArgs(f, {"prog", arg})) << arg;
    const std::string err = testing::internal::GetCapturedStderr();
    const std::string_view name = std::string_view(arg).substr(
        0, std::string_view(arg).find('='));
    EXPECT_NE(err.find(std::string(name) + "="), std::string::npos)
        << arg << ": " << err;
  }
}

TEST(Flags, BareTextFlagReadsItsDeclaredValue) {
  Flags f;
  ASSERT_TRUE(parseArgs(f, {"prog", "--out"}));
  EXPECT_EQ(f.getString("out", ""), "default.out");
  Flags g;
  ASSERT_TRUE(parseArgs(g, {"prog", "--out=x.txt", "--name="}));
  EXPECT_EQ(g.getString("out", ""), "x.txt");
  EXPECT_EQ(g.getString("name", "unset"), "");
}

TEST(Flags, UndeclaredFormReadsAnyName) {
  const char* argv[] = {"prog", "--work-dir=/tmp/w", "--seed=3", "--trace"};
  Flags f;
  ASSERT_TRUE(f.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(f.getString("work-dir", "."), "/tmp/w");
  EXPECT_EQ(f.getInt("seed", 1), 3);
  EXPECT_TRUE(f.getBool("trace", false));
  EXPECT_EQ(f.getString("workload", ""), "");
}

TEST(Flags, ReadOfAnUndeclaredNameFailsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the check is an assert";
#else
  Flags f;
  ASSERT_TRUE(parseArgs(f, {"prog"}));
  EXPECT_DEATH((void)f.getInt("nn", 0), "did not declare");
  EXPECT_DEATH((void)f.getBool("help", false), "did not declare");
#endif
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
