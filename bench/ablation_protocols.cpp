// Ablation: how the protocol parameters called out in DESIGN.md shape the
// overlap results.
//   (a) eager limit sweep — where the eager/rendezvous crossover falls for
//       a fixed message size (receiver-side max overlap flips from ~100%
//       [case-3 eager] to ~0 [rendezvous read inside MPI_Wait]);
//   (b) pipeline fragment size sweep — the sender's flat overlap ceiling in
//       pipelined-RDMA mode tracks frag/message (paper Sec. 3.5).
#include <cstdio>
#include <iostream>

#include "mpi/machine.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

struct Measured {
  double sender_max = 0;
  double sender_min = 0;
  double recver_max = 0;
  DurationNs wait = 0;
};

Measured runOnce(mpi::MpiConfig mpi_cfg, Bytes msg, DurationNs compute) {
  mpi::JobConfig job;
  job.nranks = 2;
  job.mpi = mpi_cfg;
  job.mpi.monitor.classes = overlap::SizeClasses::shortLong(4096);
  mpi::Machine machine(job);
  std::vector<std::uint8_t> sbuf(static_cast<std::size_t>(msg), 1);
  std::vector<std::uint8_t> rbuf(static_cast<std::size_t>(msg), 0);
  DurationNs wait_total = 0;
  const int iters = 30;
  machine.run([&](mpi::Mpi& mpi) {
    for (int i = 0; i < iters; ++i) {
      if (mpi.rank() == 0) {
        mpi::Request r = mpi.isend(sbuf.data(), msg, 1, 0);
        mpi.compute(compute);
        const TimeNs t0 = mpi.now();
        mpi.wait(r);
        wait_total += mpi.now() - t0;
      } else {
        mpi::Request r = mpi.irecv(rbuf.data(), msg, 0, 0);
        mpi.compute(compute);
        mpi.wait(r);
      }
      mpi.barrier();
    }
  });
  Measured m;
  m.sender_max = machine.reports()[0].whole.by_class[1].maxPct();
  m.sender_min = machine.reports()[0].whole.by_class[1].minPct();
  m.recver_max = machine.reports()[1].whole.by_class[1].maxPct();
  m.wait = wait_total / iters;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  (void)util::Flags::parseOrExit(
      argc, argv,
      {"ablation_protocols", "Protocol parameters vs overlap bounds.", {}});
  std::printf("=== ablation_protocols ===\n");

  {
    std::printf("\n-- (a) eager-limit sweep, 64 KB Isend-Irecv, direct RDMA, "
                "1 ms compute --\n");
    util::TextTable t({"eager_limit", "sender_max_pct", "recver_max_pct",
                       "sender_wait_us"});
    for (Bytes limit : {Bytes{4} << 10, Bytes{16} << 10, Bytes{64} << 10,
                        Bytes{256} << 10}) {
      mpi::MpiConfig cfg;
      cfg.preset = mpi::Preset::OpenMpiLeavePinned;
      cfg.eager_limit = limit;
      const auto m = runOnce(cfg, 64 * 1024, msec(1));
      t.addRow({util::humanBytes(limit), util::TextTable::num(m.sender_max, 1),
                util::TextTable::num(m.recver_max, 1),
                util::TextTable::num(toUsec(m.wait), 1)});
    }
    t.print(std::cout);
  }

  {
    std::printf("\n-- (b) fragment-size sweep, 1 MB Isend-Recv, pipelined "
                "RDMA, 1.75 ms compute --\n");
    util::TextTable t({"frag_size", "sender_max_pct", "expected_ceiling_pct",
                       "sender_wait_us"});
    for (Bytes frag : {Bytes{16} << 10, Bytes{32} << 10, Bytes{128} << 10,
                       Bytes{512} << 10}) {
      mpi::MpiConfig cfg;
      cfg.preset = mpi::Preset::OpenMpiPipelined;
      cfg.frag_size = frag;
      const auto m = runOnce(cfg, 1 << 20, msec(1) * 7 / 4);
      t.addRow({util::humanBytes(frag), util::TextTable::num(m.sender_max, 1),
                util::TextTable::num(
                    100.0 * static_cast<double>(frag) / (1 << 20), 1),
                util::TextTable::num(toUsec(m.wait), 1)});
    }
    t.print(std::cout);
  }
  {
    std::printf("\n-- (c) rendezvous design: RDMA Read vs RDMA Write, 1 MB "
                "Isend, 1.75 ms compute --\n");
    util::TextTable t({"design", "sender_max_pct", "sender_min_pct",
                       "sender_wait_us"});
    for (const mpi::Preset preset :
         {mpi::Preset::Mvapich2, mpi::Preset::Mvapich2RdmaWrite}) {
      mpi::MpiConfig cfg;
      cfg.preset = preset;
      const auto m = runOnce(cfg, 1 << 20, msec(1) * 7 / 4);
      t.addRow({mpi::presetName(preset),
                util::TextTable::num(m.sender_max, 1),
                util::TextTable::num(m.sender_min, 1),
                util::TextTable::num(toUsec(m.wait), 1)});
    }
    t.print(std::cout);
    std::printf("(the overlap argument for read-based rendezvous made by "
                "Sur et al. [27])\n");
  }
  return 0;
}
