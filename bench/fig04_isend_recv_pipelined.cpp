// Paper Fig. 4: Isend-Recv, pipelined-RDMA rendezvous, 1 MB.
// Only the first fragment can overlap: the sender's bounds stay flat and MPI_Wait time stays high as computation grows.
#include "microbench.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  bench::MicrobenchConfig cfg;
  cfg.preset = mpi::Preset::OpenMpiPipelined;
  cfg.sender_nonblocking = true;
  cfg.recver_nonblocking = false;
  cfg.measured_rank = 0;
  cfg.compute_points = bench::rendezvousComputeSweep();
  return bench::runFigure(
      "fig04_isend_recv_pipelined",
      "Only the first fragment can overlap: the sender's bounds stay flat and MPI_Wait time stays high as computation grows.",
      cfg, false, argc, argv);
}
