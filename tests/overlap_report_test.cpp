// Tests for report serialization (the per-process output files) and
// cross-process merging.
#include <gtest/gtest.h>

#include <sstream>

#include "mpi/machine.hpp"
#include "overlap/report.hpp"
#include "overlap/report_io.hpp"

namespace ovp::overlap {
namespace {

Report sampleReport(Rank rank) {
  Report r;
  r.rank = rank;
  r.classes = SizeClasses::shortLong(16 * 1024);
  r.monitored_time = 123456789;
  r.events_logged = 420;
  r.queue_drains = 3;
  r.case_same_call = 5;
  r.case_split_call = 7;
  r.case_inconclusive = 2;
  r.whole.name = "<all>";
  r.whole.calls = 14;
  r.whole.computation_time = 1000000;
  r.whole.communication_call_time = 250000;
  r.whole.by_class.resize(2);
  r.whole.total.addTransfer(1024, 2000, Bounds{500, 1500});
  r.whole.total.addTransfer(1 << 20, 1050000, Bounds{0, 900000});
  r.whole.by_class[0].addTransfer(1024, 2000, Bounds{500, 1500});
  r.whole.by_class[1].addTransfer(1 << 20, 1050000, Bounds{0, 900000});
  SectionReport s;
  s.name = "solve";
  s.calls = 4;
  s.computation_time = 600000;
  s.communication_call_time = 80000;
  s.by_class.resize(2);
  s.total.addTransfer(1 << 20, 1050000, Bounds{0, 900000});
  s.by_class[1].addTransfer(1 << 20, 1050000, Bounds{0, 900000});
  r.sections.push_back(std::move(s));
  return r;
}

void expectAccumEq(const OverlapAccum& a, const OverlapAccum& b) {
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.data_transfer_time, b.data_transfer_time);
  EXPECT_EQ(a.min_overlapped, b.min_overlapped);
  EXPECT_EQ(a.max_overlapped, b.max_overlapped);
}

TEST(ReportIo, SaveLoadRoundTrip) {
  const Report original = sampleReport(3);
  std::stringstream ss;
  original.save(ss);
  Report loaded;
  ASSERT_TRUE(loaded.load(ss));
  EXPECT_EQ(loaded.rank, 3);
  EXPECT_EQ(loaded.monitored_time, original.monitored_time);
  EXPECT_EQ(loaded.events_logged, original.events_logged);
  EXPECT_EQ(loaded.queue_drains, original.queue_drains);
  EXPECT_EQ(loaded.case_same_call, original.case_same_call);
  EXPECT_EQ(loaded.case_split_call, original.case_split_call);
  EXPECT_EQ(loaded.case_inconclusive, original.case_inconclusive);
  EXPECT_EQ(loaded.classes.count(), 2);
  EXPECT_EQ(loaded.classes.classOf(1024), 0);
  EXPECT_EQ(loaded.classes.classOf(100000), 1);
  expectAccumEq(loaded.whole.total, original.whole.total);
  EXPECT_EQ(loaded.whole.calls, original.whole.calls);
  EXPECT_EQ(loaded.whole.computation_time, original.whole.computation_time);
  ASSERT_EQ(loaded.sections.size(), 1u);
  EXPECT_EQ(loaded.sections[0].name, "solve");
  expectAccumEq(loaded.sections[0].total, original.sections[0].total);
  ASSERT_EQ(loaded.sections[0].by_class.size(), 2u);
  expectAccumEq(loaded.sections[0].by_class[1],
                original.sections[0].by_class[1]);
}

TEST(ReportIo, LoadRejectsGarbage) {
  Report r;
  std::stringstream bad1("not-a-report\n");
  EXPECT_FALSE(r.load(bad1));
  std::stringstream bad2("ovprof-report-v1\nrank x\n");
  EXPECT_FALSE(r.load(bad2));
  std::stringstream empty;
  EXPECT_FALSE(r.load(empty));
  std::stringstream saved;
  sampleReport(0).save(saved);
  std::string text = saved.str();
  const std::string line = "classes 16384\n";
  ASSERT_NE(text.find(line), std::string::npos);
  text.replace(text.find(line), line.size(), "classes 16384 banana\n");
  std::stringstream trailing(text);
  EXPECT_FALSE(r.load(trailing));
}

TEST(ReportIo, LoadRejectsTruncatedSectionList) {
  const Report original = sampleReport(0);
  std::stringstream ss;
  original.save(ss);
  std::string text = ss.str();
  text = text.substr(0, text.size() / 2);
  std::stringstream truncated(text);
  Report r;
  EXPECT_FALSE(r.load(truncated));
}

TEST(ReportIo, LoadFailureLeavesTheReportDefault) {
  // Valid up to the vci line, whose bounds are out of order.
  std::stringstream bad(
      "ovprof-report-v1\nrank 7\nmonitored_time 123\nevents 4 5\n"
      "cases 1 2 3\nvci 2 2 8192 256\n");
  Report r = sampleReport(3);
  EXPECT_FALSE(r.load(bad));
  const Report fresh;
  EXPECT_EQ(r.rank, fresh.rank);
  EXPECT_EQ(r.monitored_time, fresh.monitored_time);
  EXPECT_EQ(r.events_logged, fresh.events_logged);
  EXPECT_EQ(r.case_same_call, fresh.case_same_call);
  EXPECT_EQ(r.vci.channels, fresh.vci.channels);
  EXPECT_EQ(r.classes.count(), fresh.classes.count());
  EXPECT_EQ(r.whole.calls, fresh.whole.calls);
  EXPECT_TRUE(r.sections.empty());
}

TEST(ReportIo, LoadRejectsClassBoundsOutOfOrder) {
  Report original = sampleReport(0);
  original.classes = SizeClasses::fromBounds({1024, 65536});
  original.whole.by_class.resize(3);
  original.sections[0].by_class.resize(3);
  std::stringstream ss;
  original.save(ss);
  std::string text = ss.str();
  const std::string line = "classes 1024 65536\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  std::stringstream as_saved(text);
  Report loaded;
  ASSERT_TRUE(loaded.load(as_saved));
  text.replace(at, line.size(), "classes 65536 1024\n");
  std::stringstream edited(text);
  EXPECT_FALSE(loaded.load(edited))
      << "rows are filed by class index; reordered bounds relabel them";
}

TEST(ReportIo, FileRoundTrip) {
  const Report original = sampleReport(1);
  const std::string path = ::testing::TempDir() + "/ovp_report_test.ovp";
  ASSERT_TRUE(original.saveFile(path));
  Report loaded;
  ASSERT_TRUE(loaded.loadFile(path));
  EXPECT_EQ(loaded.rank, 1);
  EXPECT_FALSE(loaded.loadFile(path + ".missing"));
}

TEST(ReportIo, SingleClassRoundTrip) {
  Report r;
  r.classes = SizeClasses::single();
  r.whole.by_class.resize(1);
  std::stringstream ss;
  r.save(ss);
  Report loaded;
  ASSERT_TRUE(loaded.load(ss));
  EXPECT_EQ(loaded.classes.count(), 1);
}

TEST(ReportMerge, SumsAccumulatorsAndMatchesSectionsByName) {
  const Report a = sampleReport(0);
  const Report b = sampleReport(1);
  const Report merged = mergeReports({a, b});
  EXPECT_EQ(merged.rank, -1);
  EXPECT_EQ(merged.whole.total.transfers,
            a.whole.total.transfers + b.whole.total.transfers);
  EXPECT_EQ(merged.whole.total.min_overlapped,
            a.whole.total.min_overlapped + b.whole.total.min_overlapped);
  EXPECT_EQ(merged.case_split_call, 14);
  ASSERT_EQ(merged.sections.size(), 1u) << "same-named sections must merge";
  EXPECT_EQ(merged.sections[0].total.transfers, 2);
  EXPECT_EQ(merged.events_logged, 840);
}

TEST(ReportMerge, DisjointSectionsAreKept) {
  Report a = sampleReport(0);
  Report b = sampleReport(1);
  b.sections[0].name = "other";
  const Report merged = mergeReports({a, b});
  ASSERT_EQ(merged.sections.size(), 2u);
  EXPECT_NE(merged.findSection("solve"), nullptr);
  EXPECT_NE(merged.findSection("other"), nullptr);
}

TEST(ReportMerge, EmptyInput) {
  const Report merged = mergeReports({});
  EXPECT_EQ(merged.whole.total.transfers, 0);
}

TEST(ReportIo, MachineWritesPerRankFiles) {
  mpi::JobConfig job;
  job.nranks = 3;
  mpi::Machine machine(job);
  machine.run([](mpi::Mpi& mpi) { mpi.barrier(); });
  const std::string prefix = ::testing::TempDir() + "/ovp_job";
  ASSERT_TRUE(machine.writeReports(prefix));
  for (Rank r = 0; r < 3; ++r) {
    Report loaded;
    ASSERT_TRUE(loaded.loadFile(prefix + ".rank" + std::to_string(r) + ".ovp"));
    EXPECT_EQ(loaded.rank, r);
    EXPECT_GT(loaded.whole.calls, 0);
  }
}

TEST(ReportIo, RealRunRoundTripPreservesPercentages) {
  mpi::JobConfig job;
  job.nranks = 2;
  job.mpi.preset = mpi::Preset::Mvapich2;
  mpi::Machine machine(job);
  std::vector<std::uint8_t> buf(1 << 20);
  machine.run([&](mpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi::Request r = mpi.isend(buf.data(), 1 << 20, 1, 0);
      mpi.compute(msec(2));
      mpi.wait(r);
    } else {
      mpi.recv(buf.data(), 1 << 20, 0, 0);
    }
  });
  const Report& original = machine.reports()[0];
  std::stringstream ss;
  original.save(ss);
  Report loaded;
  ASSERT_TRUE(loaded.load(ss));
  EXPECT_DOUBLE_EQ(loaded.whole.total.minPct(), original.whole.total.minPct());
  EXPECT_DOUBLE_EQ(loaded.whole.total.maxPct(), original.whole.total.maxPct());
}

TEST(ReportIo, ExtrapolationCountersRoundTripAndStayOptional) {
  Report r = sampleReport(0);
  r.xfer_below_range = 3;
  r.xfer_above_range = 11;
  std::stringstream ss;
  r.save(ss);
  EXPECT_NE(ss.str().find("extrapolation 3 11"), std::string::npos);
  Report loaded;
  ASSERT_TRUE(loaded.load(ss));
  EXPECT_EQ(loaded.xfer_below_range, 3);
  EXPECT_EQ(loaded.xfer_above_range, 11);

  // Zero counters are omitted (old readers keep working), and a stream
  // without the line loads with zeros (old files keep working).
  const Report zero = sampleReport(0);
  std::stringstream ss2;
  zero.save(ss2);
  EXPECT_EQ(ss2.str().find("extrapolation"), std::string::npos);
  Report loaded2;
  ASSERT_TRUE(loaded2.load(ss2));
  EXPECT_EQ(loaded2.xfer_below_range, 0);
  EXPECT_EQ(loaded2.xfer_above_range, 0);
}

TEST(ReportIo, WriteMentionsExtrapolationOnlyWhenPresent) {
  Report r = sampleReport(0);
  std::ostringstream clean;
  r.write(clean);
  EXPECT_EQ(clean.str().find("xfer_extrapolation"), std::string::npos);
  r.xfer_above_range = 2;
  std::ostringstream flagged;
  r.write(flagged);
  EXPECT_NE(flagged.str().find("xfer_extrapolation"), std::string::npos);
}

TEST(ReportMerge, SumsExtrapolationCounters) {
  Report a = sampleReport(0);
  Report b = sampleReport(1);
  a.xfer_below_range = 1;
  a.xfer_above_range = 4;
  b.xfer_above_range = 5;
  const Report merged = mergeReports({a, b});
  EXPECT_EQ(merged.xfer_below_range, 1);
  EXPECT_EQ(merged.xfer_above_range, 9);
}

TEST(ReportFiles, SaveAllLoadAllRoundTrip) {
  std::vector<Report> reports = {sampleReport(0), sampleReport(1),
                                 sampleReport(2)};
  const std::string prefix = ::testing::TempDir() + "/ovp_reportio_all";
  ASSERT_TRUE(ReportIo::saveAll(reports, prefix));
  EXPECT_EQ(ReportIo::rankPath(prefix, 2), prefix + ".rank2.ovp");
  std::vector<Report> loaded;
  std::string error;
  ASSERT_TRUE(ReportIo::loadAll(prefix, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 3u);
  for (Rank r = 0; r < 3; ++r) {
    EXPECT_EQ(loaded[static_cast<std::size_t>(r)].rank, r);
  }
}

TEST(ReportFiles, LoadAllRequiresRankZero) {
  std::vector<Report> loaded;
  std::string error;
  EXPECT_FALSE(ReportIo::loadAll(::testing::TempDir() + "/ovp_reportio_nope",
                                 loaded, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ovp::overlap
