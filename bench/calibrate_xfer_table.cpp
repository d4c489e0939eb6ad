// Transfer-time calibration: the analog of the paper's a-priori perf_main
// characterization (Sec. 3.1).  Measures one-way transfer times for a
// sweep of message sizes with a ping-pong microbenchmark on the simulated
// fabric and writes the size->time table the instrumentation framework
// reads at startup.
#include <cstdio>
#include <iostream>

#include "mpi/machine.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

/// One-way time for `size`: half the average ping-pong round trip, using
/// an uninstrumented run so calibration does not perturb itself.
DurationNs measureOneWay(Bytes size, int iters) {
  mpi::JobConfig job;
  job.nranks = 2;
  job.mpi.instrument = false;
  // Zero-copy rendezvous for long messages (bounce-buffer copies would
  // inflate the large-message numbers); the registration cache absorbs the
  // one-time pinning cost after the first iteration.
  job.mpi.preset = mpi::Preset::OpenMpiLeavePinned;
  mpi::Machine machine(job);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  TimeNs elapsed = 0;
  machine.run([&](mpi::Mpi& mpi) {
    mpi.barrier();
    const TimeNs t0 = mpi.now();
    for (int i = 0; i < iters; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), size, 1, 0);
        mpi.recv(buf.data(), size, 1, 0);
      } else {
        mpi.recv(buf.data(), size, 0, 0);
        mpi.send(buf.data(), size, 0, 0);
      }
    }
    if (mpi.rank() == 0) elapsed = mpi.now() - t0;
  });
  return elapsed / (2 * iters);
}

constexpr util::Flag kFlags[] = {
    util::textFlag("out", "FILE", "table to write (default xfer_table.txt)"),
    util::intFlag("iters", "N", "ping-pongs per message size (default 50)", 1),
    util::switchFlag("csv", "print CSV instead of a table"),
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"calibrate_xfer_table", "Writes the a-priori transfer-time table.",
       kFlags});
  const int iters = static_cast<int>(flags.getInt("iters", 50));
  const std::string out = flags.getString("out", "xfer_table.txt");

  std::printf("=== calibrate_xfer_table ===\n");
  std::printf("a-priori transfer-time characterization (perf_main analog)\n\n");

  overlap::XferTimeTable table;
  util::TextTable report({"size_bytes", "one_way_ns"});
  for (Bytes size = 8; size <= Bytes{4} * 1024 * 1024; size *= 2) {
    const DurationNs t = measureOneWay(size, iters);
    table.add(size, t);
    report.addRow({util::TextTable::integer(size),
                   util::TextTable::integer(t)});
  }
  report.print(std::cout, flags.getBool("csv", false));
  if (!table.saveFile(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu points)\n", out.c_str(), table.points());
  return 0;
}
