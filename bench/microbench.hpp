// Shared driver for the paper's microbenchmark study (Sec. 3, Figs. 3-9).
//
// Two processes exchange `iters` messages with a chosen combination of
// blocking/non-blocking point-to-point calls, with increasing computation
// inserted between the initiating call and the wait on the non-blocking
// side(s).  For each computation value the driver reports the min/max
// overlap percentage of the measured rank (from the instrumentation
// framework) and its average wait time — the three series of each figure.
#pragma once

#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "util/table.hpp"

namespace ovp::bench {

struct MicrobenchConfig {
  mpi::Preset preset = mpi::Preset::OpenMpiPipelined;
  Bytes message = 1 << 20;
  bool sender_nonblocking = true;
  bool recver_nonblocking = false;
  Rank measured_rank = 0;
  int iters = 50;
  std::vector<DurationNs> compute_points;
  /// Optional: path of a transfer-time table (calibrated a priori); the
  /// analytic table is used when empty or unreadable.
  std::string table_path;
};

struct MicrobenchPoint {
  DurationNs compute = 0;
  double min_pct = 0;
  double max_pct = 0;
  DurationNs avg_wait = 0;
};

/// Runs the sweep and returns one point per compute value.
[[nodiscard]] std::vector<MicrobenchPoint> runMicrobench(
    const MicrobenchConfig& cfg);

/// Renders the standard three-series table for a figure.
[[nodiscard]] util::TextTable microbenchTable(
    const std::vector<MicrobenchPoint>& points);

/// Default compute sweeps used by the paper: 0-30 us for the eager study,
/// 0-1.75 ms for the rendezvous study.
[[nodiscard]] std::vector<DurationNs> eagerComputeSweep();
[[nodiscard]] std::vector<DurationNs> rendezvousComputeSweep();

/// A figure's main (Figs. 3-9): reads the figure flags (--message and
/// --iters override `cfg`'s), prints the banner, then the table for
/// cfg.measured_rank, or with `both_sides` one titled table per side.
int runFigure(const char* figure, const char* description,
              MicrobenchConfig cfg, bool both_sides, int argc, char** argv);

/// Shared banner so every figure binary identifies itself uniformly.
void printHeader(const char* figure, const char* description);

}  // namespace ovp::bench
