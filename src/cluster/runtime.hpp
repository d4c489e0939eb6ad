// Multi-job cluster runtime: runs a whole workload on ONE shared simulated
// fabric, so co-scheduled jobs genuinely contend on its wire and node-port
// state.
//
// Topology.  The engine hosts nodes*ranks_per_node worker ranks (global
// rank = node*rpn + slot) plus one extra rank — the *driver* — at the end.
// The fabric's partition alignment (ranks_per_node) puts the driver in its
// own partition block, so scheduler bookkeeping never shares a worker
// thread's state with job ranks.
//
// Protocol.  Worker ranks sit in a mailbox loop; all cross-partition talk
// uses the engine's lookahead-legal primitives, making the whole campaign
// bit-identical at any --ovprof-workers count:
//   * launch: the driver fills the rank's mailbox (job spec + rank group),
//     then scheduleFor(rank, now+L, set-go-and-wake).  The window barrier
//     orders the mailbox writes before the flag flip.
//   * run:    the worker builds a job-local mpi::Mpi (MpiConfig::group maps
//     local ranks to its allocation) and runs the kernel body; bodies end
//     in a barrier, so a finished job leaves no packets in flight and its
//     ranks can be reused immediately.
//   * finish: the worker stores its finalized overlap report (carrying
//     what its NIC's fault and VCI counters gained during the body, when
//     the fabric counts them), NIC link-wait delta and end time in the
//     mailbox, then scheduleFor(driver, now+L, record-and-wake).  The
//     driver folds the report into the streaming cluster::Aggregator and
//     retires the job when its last rank reports.
//
// Interference metrics come from optional *solo baselines*: each distinct
// (kernel, class, nranks) is run once on a dedicated idle fabric (before
// the campaign, cached) and every finished job is scored against its
// baseline — slowdown, contention share, overlap delta (see JobRecord).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/aggregator.hpp"
#include "cluster/job.hpp"
#include "cluster/scheduler.hpp"
#include "mpi/config.hpp"
#include "net/params.hpp"
#include "util/types.hpp"

namespace ovp::cluster {

struct ClusterConfig {
  int nodes = 4;
  int ranks_per_node = 4;
  SchedPolicy policy = SchedPolicy::Backfill;
  /// Whole-node allocation (co-running jobs on disjoint node sets) vs
  /// slot-level sharing (small jobs can contend on one node's NIC ports).
  bool exclusive_nodes = true;
  net::FabricParams fabric;  // ranks_per_node is overwritten from above
  mpi::MpiConfig mpi;        // group is set per job; instrument should stay on
  /// Engine worker threads; results are bit-identical at any value.
  int workers = 1;
  /// Compute solo baselines (one extra run per distinct job shape).  Off,
  /// every record carries solo_duration 0 and zeroed interference metrics.
  bool baselines = true;
  AggregatorConfig agg;
};

/// One line of the launch log (the deterministic schedule).
struct LaunchEvent {
  std::int64_t job = 0;
  TimeNs time = 0;         // body start (launch decision + lookahead)
  std::vector<int> nodes;  // nodes granted
  bool backfilled = false;
};

struct CampaignResult {
  std::int64_t jobs = 0;
  TimeNs makespan = 0;  // engine finish time of the campaign
  std::int64_t records_written = 0;
  int peak_open_jobs = 0;       // aggregator memory high-water mark
  std::int64_t backfills = 0;   // launches that jumped the queue head
  std::int64_t baselines = 0;   // distinct solo-baseline runs performed
};

class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterConfig cfg);

  /// Runs the whole workload and streams the finalized ovprof-agg-v1
  /// records to `agg_out`.  Jobs may arrive in any order; scheduling is a
  /// pure function of the workload, so reruns are bit-identical.
  CampaignResult run(std::vector<JobSpec> jobs, std::ostream& agg_out);

  /// Launch log of the last run, in decision order.
  [[nodiscard]] const std::vector<LaunchEvent>& launchLog() const {
    return launch_log_;
  }
  /// Head reservations granted by the backfill policy during the last run.
  [[nodiscard]] const std::vector<HeadReservation>& reservations() const {
    return reservations_;
  }
  /// Engine workers the last run's campaign engine actually used.
  [[nodiscard]] int workersUsed() const { return workers_used_; }

 private:
  struct Solo {
    DurationNs duration = 0;
    double max_overlap_pct = 0.0;
  };

  /// Runs (and caches) the solo baseline for one job shape on a dedicated
  /// idle fabric.
  const Solo& soloFor(const JobSpec& spec);

  ClusterConfig cfg_;
  std::map<std::string, Solo> solo_cache_;  // "kernel/class/nranks"
  std::vector<LaunchEvent> launch_log_;
  std::vector<HeadReservation> reservations_;
  std::int64_t baseline_runs_ = 0;
  int workers_used_ = 1;
};

}  // namespace ovp::cluster
