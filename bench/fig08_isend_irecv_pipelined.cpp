// Paper Fig. 8: Isend-Irecv, pipelined-RDMA rendezvous, 1 MB.
// Sender-side view with both sides non-blocking: still only the initial fragment overlaps.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiPipelined;
  cfg.sender_nonblocking = true;
  cfg.recver_nonblocking = true;
  cfg.measured_rank = 0;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig08_isend_irecv_pipelined",
      "Sender-side view with both sides non-blocking: still only the initial fragment overlaps.",
      cfg, false, argc, argv);
}
