// Paper Fig. 6: Send-Irecv, pipelined-RDMA rendezvous, 1 MB.
// Receiver-side view: only the RTS-borne first fragment overlaps; wait time is high and flat.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiPipelined;
  cfg.sender_nonblocking = false;
  cfg.recver_nonblocking = true;
  cfg.measured_rank = 1;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig06_send_irecv_pipelined",
      "Receiver-side view: only the RTS-borne first fragment overlaps; wait time is high and flat.",
      cfg, false, argc, argv);
}
