// Paper Fig. 9: Isend-Irecv, direct RDMA, 1 MB.
// Both sides non-blocking with RDMA Read rendezvous: the sender can reach complete overlap.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiLeavePinned;
  cfg.sender_nonblocking = true;
  cfg.recver_nonblocking = true;
  cfg.measured_rank = 0;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig09_isend_irecv_direct",
      "Both sides non-blocking with RDMA Read rendezvous: the sender can reach complete overlap.",
      cfg, false, argc, argv);
}
