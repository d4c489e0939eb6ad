// Shared infrastructure for the NAS Parallel Benchmark reproductions.
//
// Each kernel reproduces the *communication structure* and a working
// (scaled-down) version of the *numerics* of its NPB counterpart, running
// on the simulated MPI/ARMCI libraries.  Real arithmetic is executed and
// self-verified; its virtual-time cost is charged through a simple flop
// cost model so that computation/communication ratios are plausible for
// the paper's 2006-era platform (2.4 GHz Xeon, ~1 GB/s network).
//
// Problem classes: the NPB class letters are kept (S, A, B) but map to
// scaled-down grids (documented per kernel and in DESIGN.md) so that the
// discrete-event simulation of a full run completes in seconds of host
// time.  Message-size *mixes* (short-dominated for CG/LU, long-dominated
// for BT/FT/SP) mirror the originals qualitatively, which is what the
// overlap characterization depends on.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "mpi/machine.hpp"
#include "overlap/report.hpp"
#include "util/types.hpp"

namespace ovp::nas {

enum class Class : std::uint8_t { S, A, B };

[[nodiscard]] constexpr const char* className(Class c) {
  switch (c) {
    case Class::S: return "S";
    case Class::A: return "A";
    case Class::B: return "B";
  }
  return "?";
}

/// Flop-cost model: virtual nanoseconds charged per floating-point
/// operation (default ~2 GFLOP/s sustained).
struct CostModel {
  double ns_per_flop = 0.5;
  [[nodiscard]] DurationNs flops(std::int64_t n) const {
    return static_cast<DurationNs>(static_cast<double>(n) * ns_per_flop);
  }
};

/// Common parameters for running one kernel.
struct NasParams {
  int nranks = 4;
  Class cls = Class::S;
  mpi::Preset preset = mpi::Preset::OpenMpiPipelined;
  bool instrument = true;
  /// Attach the analysis layer (StreamVerifier + UsageChecker) to every
  /// rank; findings land in NasResult::diagnostics.
  bool verify = false;
  CostModel cost;
  net::FabricParams fabric;
  /// Overrides the number of time steps / outer iterations (0 = class
  /// default).
  int iterations = 0;
  /// Always-on event tracing (timeline export + cross-rank analysis).
  trace::CollectorConfig trace;
  /// Engine worker threads (mpi::JobConfig::workers).
  int workers = 1;
};

/// Sums per-rank whole-run overlap accumulators (all ranks, all sizes).
[[nodiscard]] overlap::OverlapAccum aggregateWhole(
    const std::vector<overlap::Report>& reports);

/// Sums a named section's accumulators across ranks (ranks missing the
/// section contribute nothing).
[[nodiscard]] overlap::OverlapAccum aggregateSection(
    const std::vector<overlap::Report>& reports, std::string_view name);

/// Sums per-rank fault/reliability counters (all zero on a lossless run).
[[nodiscard]] overlap::FaultStats aggregateFaults(
    const std::vector<overlap::Report>& reports);

/// Outcome of one kernel run.
struct NasResult {
  bool verified = false;
  double checksum = 0.0;          // kernel-specific scalar (zeta, residual...)
  TimeNs time = 0;                // virtual job time
  std::vector<overlap::Report> reports;  // per rank (instrumented runs)
  /// Analysis-layer findings, all ranks (empty unless NasParams::verify).
  std::vector<analysis::Diagnostic> diagnostics;
  /// Trace collector (null unless NasParams::trace.enabled).
  std::shared_ptr<trace::Collector> trace;
  /// Why the kernel did not run at this rank count and class (its grid does
  /// not split over the process grid); empty when it ran.
  std::string error;

  /// Whole-run overlap percentages aggregated over every process (our
  /// decomposition makes rank 0 a corner rank, so unlike the paper's
  /// multipartition runs it is not representative on its own).
  [[nodiscard]] double minPct() const {
    return aggregateWhole(reports).minPct();
  }
  [[nodiscard]] double maxPct() const {
    return aggregateWhole(reports).maxPct();
  }
  /// Mean per-rank time spent inside MPI calls (Fig. 18's "MPI time").
  [[nodiscard]] DurationNs mpiTime() const {
    if (reports.empty()) return 0;
    DurationNs total = 0;
    for (const auto& r : reports) total += r.whole.communication_call_time;
    return total / static_cast<DurationNs>(reports.size());
  }
};

/// The result of a kernel that cannot run at its parameters, and why.
[[nodiscard]] NasResult cannotRun(std::string why);

/// The result of a kernel that ran on `machine`: its checksum and verdict,
/// then the machine's finish time, reports, diagnostics and trace
/// collector, copied in that order.
template <class Job>
[[nodiscard]] NasResult nasResult(const mpi::BasicMachine<Job>& machine,
                                  double checksum, bool verified) {
  NasResult out;
  out.checksum = checksum;
  out.verified = verified;
  out.time = machine.finishTime();
  out.reports = machine.reports();
  out.diagnostics = machine.diagnostics();
  out.trace = machine.traceCollector();
  return out;
}

/// Sets the library settings every kernel's job shares, over MPI or ARMCI.
void setLibraryConfig(mpi::LibraryConfig& lib, const NasParams& p);

/// Builds the JobConfig shared by all kernels.
[[nodiscard]] mpi::JobConfig makeJobConfig(const NasParams& p);

/// Splits `n` cells over `parts` parts; part i gets sizes[i] cells starting
/// at starts[i] (earlier parts get the remainder, like NPB's block
/// distribution).
struct BlockDist {
  std::vector<int> start;
  std::vector<int> size;
};
[[nodiscard]] BlockDist blockDistribute(int n, int parts);

/// Largest px <= sqrt(p) with p % px == 0 (2D process-grid factorization).
/// Both grids come from skel::sym::factor2d/factor3d, so a kernel and its
/// symbolic template share one factorization.
struct Grid2D {
  int px = 1;
  int py = 1;
};
[[nodiscard]] Grid2D factor2d(int p);

/// Near-cubic 3D factorization (px <= py <= pz, px*py*pz == p).
struct Grid3D {
  int px = 1;
  int py = 1;
  int pz = 1;
};
[[nodiscard]] Grid3D factor3d(int p);

}  // namespace ovp::nas
