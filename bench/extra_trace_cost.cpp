// Extension: profiling vs tracing storage cost (paper Sec. 5), plus the
// virtual-time overhead of the src/trace ring (a Figure-20-style table).
//
// "Trace-based approaches have to deal with problems like ... the overhead
// of storing voluminous trace files.  Unlike tracing, we numerically
// quantify the extent of non-overlapped communication."  This driver runs
// the same 2-rank job with the overlap framework and the src/trace
// collector attached, and compares the storage of every trace record the
// collector keeps with the capacity of the framework's event queue, the
// most it ever holds.
//
// The second table runs identical jobs with the bounded trace ring off and
// on.  Because every trace record is charged host time (observer cost per
// monitor event, hook cost per matching record), the traced job's virtual
// run time is strictly larger; the table reports that dilation the same way
// the paper's Fig. 20 reports the monitor's own overhead.
#include <cstdio>
#include <iostream>

#include "mpi/machine.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

/// The 2-rank isend/compute/wait loop all tables share.
void pingLoop(mpi::Mpi& mpi, std::vector<std::uint8_t>& buf, int iters) {
  for (int i = 0; i < iters; ++i) {
    if (mpi.rank() == 0) {
      mpi::Request r = mpi.isend(buf.data(), 32 * 1024, 1, 0);
      mpi.compute(usec(100));
      mpi.wait(r);
    } else {
      mpi.recv(buf.data(), 32 * 1024, 0, 0);
    }
    mpi.barrier();
  }
}

constexpr util::Flag kFlags[] = {
    util::switchFlag("csv", "print CSV instead of tables"),
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"extra_trace_cost", "Trace storage and overhead vs the framework's.",
       kFlags});
  std::printf("=== extra_trace_cost ===\n"
              "Fixed-memory profiling (the framework) vs full event tracing "
              "on the same traffic.\n\n");
  util::TextTable table({"iterations", "trace_records", "trace_kb",
                         "framework_queue_cap_kb", "framework_drains"});
  for (const int iters : {10, 40, 160}) {
    mpi::JobConfig cfg;
    cfg.nranks = 2;
    cfg.mpi.monitor.queue_capacity = 1024;
    // The default ring is far larger than these runs, so it never drops:
    // what it holds is what an unbounded trace would store.
    cfg.trace.enabled = true;
    mpi::Machine machine(cfg);
    std::vector<std::uint8_t> buf(32 * 1024);
    machine.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });
    const std::int64_t records = machine.traceCollector()->recordedTotal();
    const std::int64_t drains = machine.reports()[0].queue_drains;
    const double queue_kb =
        static_cast<double>(cfg.mpi.monitor.queue_capacity *
                            sizeof(overlap::Event)) /
        1024.0;
    table.addRow({util::TextTable::integer(iters),
                  util::TextTable::integer(records),
                  util::TextTable::num(
                      static_cast<double>(records * sizeof(trace::Record)) /
                          1024.0,
                      1),
                  util::TextTable::num(queue_kb, 1),
                  util::TextTable::integer(drains)});
  }
  table.print(std::cout, flags.getBool("csv", false));
  std::printf(
      "\nTrace storage grows linearly with run length; the framework's\n"
      "queue never outgrows its fixed cap and is simply drained more\n"
      "often.\n\n");

  std::printf("Bounded trace ring: virtual-time overhead vs tracing off "
              "(Fig. 20 style).\n\n");
  util::TextTable ring({"iterations", "records", "ring_cap_kb", "dropped",
                        "time_off_ms", "time_on_ms", "overhead_pct"});
  for (const int iters : {10, 40, 160}) {
    std::vector<std::uint8_t> buf(32 * 1024);
    mpi::JobConfig off;
    off.nranks = 2;
    mpi::Machine machine_off(off);
    machine_off.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });

    mpi::JobConfig on = off;
    on.trace.enabled = true;
    mpi::Machine machine_on(on);
    machine_on.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });

    const trace::Collector& tc = *machine_on.traceCollector();
    const double t_off = toMsec(machine_off.finishTime());
    const double t_on = toMsec(machine_on.finishTime());
    ring.addRow(
        {util::TextTable::integer(iters),
         util::TextTable::integer(static_cast<long long>(tc.recordedTotal())),
         util::TextTable::num(
             static_cast<double>(on.trace.ring_capacity * sizeof(trace::Record))
                 / 1024.0, 0),
         util::TextTable::integer(static_cast<long long>(tc.droppedTotal())),
         util::TextTable::num(t_off, 3), util::TextTable::num(t_on, 3),
         util::TextTable::num(t_off > 0 ? 100.0 * (t_on - t_off) / t_off : 0.0,
                              2)});
  }
  ring.print(std::cout, flags.getBool("csv", false));
  std::printf(
      "\nring_cap_kb is the ring's capacity, a cap: it is allocated up front\n"
      "but only the records kept are written (the trace_kb column above),\n"
      "and records past the cap are dropped and counted, never silently.\n"
      "Its host cost is charged in virtual time, so the overhead is visible\n"
      "in the measured run times themselves.\n");
  return 0;
}
