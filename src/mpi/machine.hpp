// Machine: one simulated cluster job running an MPI program.
//
// Owns the discrete-event engine, the fabric, and a per-rank Mpi library
// instance; runs the given rank function on every rank and collects the
// per-process overlap reports at "MPI_Finalize" time (when instrumented).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "mpi/config.hpp"
#include "mpi/mpi.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"

namespace ovp::mpi {

struct JobConfig {
  int nranks = 2;
  net::FabricParams fabric;
  MpiConfig mpi;
  trace::CollectorConfig trace;
  /// Engine worker threads (conservative parallel mode; results are
  /// bit-identical at any value, fault injection included).
  int workers = 1;
};

class Machine {
 public:
  explicit Machine(JobConfig cfg);

  /// Runs `rankMain` on every rank; returns when the job completes.  For
  /// instrumented jobs each rank's report is finalized after rankMain
  /// returns (the MPI_Finalize analog) and kept for inspection.
  void run(const std::function<void(Mpi&)>& rankMain);

  /// Virtual time at which the job finished.
  [[nodiscard]] TimeNs finishTime() const { return engine_.finishTime(); }

  /// Per-rank reports of the last run (empty when not instrumented).
  [[nodiscard]] const std::vector<overlap::Report>& reports() const {
    return reports_;
  }

  /// Analysis-layer findings of the last run, all ranks, in rank order
  /// (empty unless cfg.mpi.verify).  Also printed to stderr at end of run.
  [[nodiscard]] const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

  /// Writes each rank's report of the last run to "<prefix>.rank<N>.ovp"
  /// in the exact (reloadable) format — the per-process output files of
  /// the paper's Fig. 2.  Returns false if any file could not be written.
  [[nodiscard]] bool writeReports(const std::string& prefix) const;

  [[nodiscard]] const JobConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Job-wide fault/reliability counters of the last run (all zero unless
  /// cfg.fabric.fault was enabled).  Per-rank values are on each report.
  [[nodiscard]] const overlap::FaultStats& faultTotals() const {
    return fault_totals_;
  }

  /// Trace collector of the last run (null unless cfg.trace.enabled).
  /// Shared so results can outlive the Machine.
  [[nodiscard]] const std::shared_ptr<trace::Collector>& traceCollector()
      const {
    return trace_;
  }

 private:
  JobConfig cfg_;
  sim::Engine engine_;
  std::vector<overlap::Report> reports_;
  std::vector<analysis::Diagnostic> diagnostics_;
  overlap::FaultStats fault_totals_;
  std::shared_ptr<trace::Collector> trace_;
};

}  // namespace ovp::mpi
