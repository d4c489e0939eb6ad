// Paper Fig. 5: Isend-Recv, direct RDMA (mpi_leave_pinned), 1 MB.
// The receiver RDMA-Reads the exposed send buffer on seeing the RTS: sender overlap grows to full and wait time falls with computation.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiLeavePinned;
  cfg.sender_nonblocking = true;
  cfg.recver_nonblocking = false;
  cfg.measured_rank = 0;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig05_isend_recv_direct",
      "The receiver RDMA-Reads the exposed send buffer on seeing the RTS: sender overlap grows to full and wait time falls with computation.",
      cfg, false, argc, argv);
}
