// Paper Fig. 7: Send-Irecv, direct RDMA, 1 MB.
// Polling progress: the receiver only sees the RTS on entering MPI_Wait, so the RDMA Read happens inside the wait - zero overlap.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiLeavePinned;
  cfg.sender_nonblocking = false;
  cfg.recver_nonblocking = true;
  cfg.measured_rank = 1;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig07_send_irecv_direct",
      "Polling progress: the receiver only sees the RTS on entering MPI_Wait, so the RDMA Read happens inside the wait - zero overlap.",
      cfg, false, argc, argv);
}
