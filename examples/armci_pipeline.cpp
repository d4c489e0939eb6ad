// One-sided pipelining with ARMCI: a producer streams blocks of work into
// a consumer's inbox with non-blocking puts, generating block k+1 while
// block k is still on the wire.  The overlap framework's report shows the
// transfers hiding almost entirely behind the generation computation — the
// property that made the non-blocking ARMCI MG port fast in the paper's
// Sec. 4.4.
#include <cstdio>
#include <iostream>
#include <vector>

#include "armci/armci.hpp"
#include "util/flags.hpp"

using namespace ovp;

namespace {
constexpr Bytes kBlock = 256 * 1024;
constexpr int kBlocks = 24;
}  // namespace

int main(int argc, char** argv) {
  (void)util::Flags::parseOrExit(
      argc, argv,
      {"armci_pipeline", "Pipelines one-sided puts behind computation.", {}});
  armci::ArmciJobConfig job;
  job.nranks = 2;
  armci::ArmciMachine machine(job);

  // Consumer-side landing area, one slot per block.
  std::vector<std::vector<std::uint8_t>> inbox(
      kBlocks, std::vector<std::uint8_t>(kBlock));
  // Producer-side double buffer: one block being generated, one in flight.
  std::vector<std::uint8_t> staging[2] = {
      std::vector<std::uint8_t>(kBlock), std::vector<std::uint8_t>(kBlock)};
  long consumed_sum = 0;

  machine.run([&](armci::Armci& a) {
    if (a.rank() == 0) {
      armci::NbHandle in_flight[2];
      for (int k = 0; k < kBlocks; ++k) {
        auto& buf = staging[k % 2];
        a.wait(in_flight[k % 2]);  // this slot's previous put has drained
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = static_cast<std::uint8_t>((k + i) & 0xff);
        }
        a.compute(usec(400));  // generation cost of one block
        in_flight[k % 2] = a.nbPut(
            buf.data(), inbox[static_cast<std::size_t>(k)].data(), kBlock, 1);
      }
      a.waitAll();
      a.fence(1);  // all blocks are placed remotely
      a.barrier();
    } else {
      a.barrier();  // producer finished streaming
      for (int k = 0; k < kBlocks; ++k) {
        consumed_sum += inbox[static_cast<std::size_t>(k)][0];
        a.compute(usec(100));
      }
    }
  });

  std::printf("streamed %d blocks of %lld KB; consumer checksum %ld\n\n",
              kBlocks, static_cast<long long>(kBlock / 1024), consumed_sum);
  const overlap::Report& producer = machine.reports()[0];
  producer.write(std::cout);
  const auto& total = producer.whole.total;
  std::printf(
      "\nProducer-side reading: [%.1f%%, %.1f%%] of %.2f ms of transfer\n"
      "time was hidden behind block generation — one-sided puts progress on\n"
      "the NIC with no help from either host (paper Sec. 4.4).\n",
      total.minPct(), total.maxPct(), toMsec(total.data_transfer_time));
  return 0;
}
