#include "microbench.hpp"

#include <cstdio>
#include <iostream>

#include "util/flags.hpp"
#include "util/strings.hpp"

namespace ovp::bench {

std::vector<MicrobenchPoint> runMicrobench(const MicrobenchConfig& cfg) {
  std::vector<MicrobenchPoint> points;
  for (const DurationNs compute : cfg.compute_points) {
    mpi::JobConfig job;
    job.nranks = 2;
    job.mpi.preset = cfg.preset;
    // Per size class, like the paper: the tiny barrier messages that keep
    // the two sides in step land in "short"; the measured message in
    // "long".
    job.mpi.monitor.classes = overlap::SizeClasses::shortLong(4096);
    if (!cfg.table_path.empty()) {
      (void)job.mpi.monitor.table.loadFile(cfg.table_path);
    }
    mpi::Machine machine(job);
    std::vector<std::uint8_t> sbuf(static_cast<std::size_t>(cfg.message), 1);
    std::vector<std::uint8_t> rbuf(static_cast<std::size_t>(cfg.message), 0);
    DurationNs wait_total = 0;
    machine.run([&](mpi::Mpi& mpi) {
      for (int i = 0; i < cfg.iters; ++i) {
        if (mpi.rank() == 0) {
          if (cfg.sender_nonblocking) {
            mpi::Request r = mpi.isend(sbuf.data(), cfg.message, 1, 0);
            if (compute > 0) mpi.compute(compute);
            const TimeNs t0 = mpi.now();
            mpi.wait(r);
            if (cfg.measured_rank == 0) wait_total += mpi.now() - t0;
          } else {
            mpi.send(sbuf.data(), cfg.message, 1, 0);
          }
        } else {
          if (cfg.recver_nonblocking) {
            mpi::Request r = mpi.irecv(rbuf.data(), cfg.message, 0, 0);
            if (compute > 0) mpi.compute(compute);
            const TimeNs t0 = mpi.now();
            mpi.wait(r);
            if (cfg.measured_rank == 1) wait_total += mpi.now() - t0;
          } else {
            mpi.recv(rbuf.data(), cfg.message, 0, 0);
          }
        }
        mpi.barrier();
      }
    });
    const overlap::Report& rep =
        machine.reports()[static_cast<std::size_t>(cfg.measured_rank)];
    const overlap::OverlapAccum& cls = rep.whole.by_class[1];
    MicrobenchPoint p;
    p.compute = compute;
    p.min_pct = cls.minPct();
    p.max_pct = cls.maxPct();
    p.avg_wait = wait_total / cfg.iters;
    points.push_back(p);
  }
  return points;
}

util::TextTable microbenchTable(const std::vector<MicrobenchPoint>& points) {
  util::TextTable t({"compute_us", "min_overlap_pct", "max_overlap_pct",
                     "avg_wait_us"});
  for (const MicrobenchPoint& p : points) {
    t.addRow({util::TextTable::num(toUsec(p.compute), 1),
              util::TextTable::num(p.min_pct, 1),
              util::TextTable::num(p.max_pct, 1),
              util::TextTable::num(toUsec(p.avg_wait), 1)});
  }
  return t;
}

std::vector<DurationNs> eagerComputeSweep() {
  std::vector<DurationNs> v;
  for (int us = 0; us <= 30; us += 3) v.push_back(usec(us));
  return v;
}

std::vector<DurationNs> rendezvousComputeSweep() {
  std::vector<DurationNs> v;
  for (int i = 0; i <= 7; ++i) v.push_back(i * msec(1) / 4);
  return v;
}

void printHeader(const char* figure, const char* description) {
  std::printf("=== %s ===\n%s\n\n", figure, description);
}

int runFigure(const char* figure, const char* description,
              MicrobenchConfig cfg, bool both_sides, int argc, char** argv) {
  static constexpr util::Flag kFlags[] = {
      util::intFlag("message", "BYTES", "message size (default: the figure's)",
                    0),
      util::intFlag("iters", "N", "messages per point (default 50)", 1),
      util::textFlag("table", "FILE", "a-priori transfer-time table"),
      util::switchFlag("csv", "print CSV instead of a table"),
  };
  const util::Flags flags =
      util::Flags::parseOrExit(argc, argv, {figure, description, kFlags});
  cfg.message = flags.getInt("message", cfg.message);
  cfg.iters = static_cast<int>(flags.getInt("iters", cfg.iters));
  cfg.table_path = flags.getString("table", "");
  printHeader(figure, description);
  for (const Rank side : {Rank{0}, Rank{1}}) {
    if (both_sides) {
      cfg.measured_rank = side;
      std::cout << (side == 0 ? "-- sender (Isend) --\n"
                              : "-- receiver (Irecv) --\n");
    }
    const auto table = microbenchTable(runMicrobench(cfg));
    table.print(std::cout, flags.getBool("csv", false));
    if (!both_sides) break;
    std::cout << '\n';
  }
  return 0;
}

}  // namespace ovp::bench
