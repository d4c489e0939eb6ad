// Golden-file tests for overlap/report.cpp: two fixed-seed workloads whose
// human-readable (write) and exact (save) outputs are diffed against
// checked-in canonical files.  The simulation is a deterministic DES, so
// any byte difference is a real behaviour or format change.
//
// To regenerate after an intentional change:
//   OVPROF_REGOLD=1 ./build/tests/golden_report_test
// then commit the updated files under tests/golden/.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "mpi/machine.hpp"

namespace ovp {
namespace {

/// Serializes every rank's report (write + save formats) into one blob.
std::string dumpReports(const std::vector<overlap::Report>& reports) {
  std::ostringstream os;
  for (const overlap::Report& r : reports) {
    os << "==== write rank " << r.rank << " ====\n";
    r.write(os);
    os << "==== save rank " << r.rank << " ====\n";
    r.save(os);
  }
  return os.str();
}

// Workload A: lossless fabric, pipelined rendezvous preset, message sizes
// spanning the size-class split, sections nested two deep, one unmatched
// (case 3) eager receive side.
std::vector<overlap::Report> runWorkloadA() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = mpi::Preset::OpenMpiPipelined;
  cfg.mpi.verify = true;
  cfg.mpi.monitor.classes = overlap::SizeClasses::shortLong(16 * 1024);
  mpi::Machine machine(cfg);
  const std::vector<Bytes> sizes = {256, 4096, 16 * 1024, 128 * 1024,
                                    1024 * 1024};
  std::vector<std::uint8_t> buf(1024 * 1024, 3);
  machine.run([&](mpi::Mpi& mpi) {
    mpi.sectionBegin("outer");
    for (const Bytes size : sizes) {
      mpi.sectionBegin("inner");
      if (mpi.rank() == 0) {
        mpi::Request req = mpi.isend(buf.data(), size, 1, 0);
        mpi.compute(200'000);
        mpi.wait(req);
        mpi.recv(buf.data(), 64, 1, 1);  // eager ping back
      } else {
        mpi::Request req = mpi.irecv(buf.data(), size, 0, 0);
        mpi.compute(80'000);
        mpi.wait(req);
        mpi.send(buf.data(), 64, 0, 1);
      }
      mpi.sectionEnd();
    }
    mpi.sectionEnd();
  });
  EXPECT_TRUE(analysis::clean(machine.diagnostics()));
  return machine.reports();
}

// Workload B: the same exchange pattern on a lossy fabric (fixed fault
// seed), so the golden pins the fault counters and the delayed-completion
// bookkeeping too.
std::vector<overlap::Report> runWorkloadB() {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = mpi::Preset::Mvapich2;
  cfg.mpi.verify = true;
  cfg.fabric.fault.rates.drop = 0.05;
  cfg.fabric.fault.rates.duplicate = 0.03;
  cfg.fabric.fault.rates.jitter = 800;
  cfg.fabric.fault.seed = 20260805;
  mpi::Machine machine(cfg);
  std::vector<std::uint8_t> buf(256 * 1024, 9);
  machine.run([&](mpi::Mpi& mpi) {
    mpi.sectionBegin("steady");
    for (int i = 0; i < 6; ++i) {
      const Bytes size = 1024u << (2 * (i % 3));  // 1K, 4K, 16K
      if (mpi.rank() == 0) {
        mpi::Request req = mpi.isend(buf.data(), size, 1, 0);
        mpi.compute(120'000);
        mpi.wait(req);
      } else {
        mpi::Request req = mpi.irecv(buf.data(), size, 0, 0);
        mpi.compute(40'000);
        mpi.wait(req);
      }
      mpi.barrier();
    }
    mpi.sectionEnd();
  });
  EXPECT_TRUE(analysis::clean(machine.diagnostics()));
  return machine.reports();
}

TEST(GoldenReport, LosslessPipelinedWorkload) {
  compareOrRegold("workload_a.txt", dumpReports(runWorkloadA()));
}

TEST(GoldenReport, FaultInjectedWorkload) {
  compareOrRegold("workload_b.txt", dumpReports(runWorkloadB()));
}

TEST(GoldenReport, SaveLoadRoundTripMatchesGolden) {
  // The save format (including the optional faults line) must survive a
  // load/save round trip byte-for-byte.
  for (const auto& reports : {runWorkloadA(), runWorkloadB()}) {
    for (const overlap::Report& r : reports) {
      std::ostringstream first;
      r.save(first);
      overlap::Report reloaded;
      std::istringstream is(first.str());
      ASSERT_TRUE(reloaded.load(is));
      std::ostringstream second;
      reloaded.save(second);
      EXPECT_EQ(first.str(), second.str());
      EXPECT_EQ(reloaded.faults.any(), r.faults.any());
      EXPECT_EQ(reloaded.faults.retransmissions, r.faults.retransmissions);
    }
  }
}

}  // namespace
}  // namespace ovp
