// Slurm-style job scheduler over a pool of simulated nodes.
//
// Two policies:
//   * Fifo      — strict (priority desc, arrival, id) order; the queue head
//                 blocks everything behind it until it fits.
//   * Backfill  — EASY backfilling: the blocked head gets a reservation at
//                 the earliest time enough capacity frees up (computed from
//                 the running jobs' runtime estimates), and jobs further
//                 back may start immediately iff they cannot delay that
//                 reservation (they finish by it, or use capacity the head
//                 does not need).  With exact estimates the head provably
//                 starts no later than its reservation; the randomized
//                 property tests pin that guarantee.
//
// Every decision is a deterministic function of (queue contents, running
// set, now): the queue is totally ordered by (-priority, arrival, id), node
// allocation always picks the lowest free ids, and ties between running
// jobs' estimated ends break by job id.  Reruns — at any engine worker
// count — therefore produce bit-identical schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/job.hpp"
#include "util/types.hpp"

namespace ovp::cluster {

/// Allocator of rank slots on a cluster of `nodes` nodes with
/// `ranks_per_node` slots each (global engine rank = node * rpn + slot).
///
/// Exclusive mode hands out whole nodes (lowest free ids), so co-running
/// jobs occupy disjoint node sets; shared mode hands out individual slots
/// (lowest free first), so small jobs can share a node — and genuinely
/// contend on its NIC ports.
class NodePool {
 public:
  struct Alloc {
    std::vector<Rank> ranks;  // global engine ranks, ascending
    std::vector<int> nodes;   // nodes touched, ascending
  };

  NodePool(int nodes, int ranks_per_node, bool exclusive);

  /// Allocates `nranks` slots; false (and `out` untouched) when they don't
  /// fit right now.
  [[nodiscard]] bool tryAlloc(int nranks, Alloc& out);
  void release(const Alloc& a);

  [[nodiscard]] int nodes() const { return static_cast<int>(used_.size()); }
  [[nodiscard]] bool exclusive() const { return exclusive_; }
  /// Scheduling capacity in allocation units: nodes when exclusive, slots
  /// when shared.
  [[nodiscard]] int capacityUnits() const;
  [[nodiscard]] int freeUnits() const;
  /// A job's demand in allocation units (ceil(nranks/rpn) nodes, or nranks
  /// slots).
  [[nodiscard]] int demandUnits(int nranks) const;

 private:
  int rpn_;
  bool exclusive_;
  std::vector<int> used_;                   // used slots per node
  std::vector<std::vector<bool>> slot_used_;  // [node][slot]
};

/// One launch decision returned by Scheduler::poll.
struct Launch {
  JobSpec spec;
  TimeNs time = 0;
  NodePool::Alloc alloc;
  bool backfilled = false;
  /// The blocked head's reservation at decision time (kTimeNever when the
  /// launch was not a backfill around a blocked head).
  TimeNs head_reservation = kTimeNever;
};

/// Reservation granted to a blocked queue head (recorded every poll while
/// it stays blocked) — the property the backfill tests verify: the head's
/// actual start never exceeds the first reservation it was given, when
/// estimates are exact.
struct HeadReservation {
  std::int64_t job = 0;
  TimeNs at = 0;     // when the reservation was (re)computed
  TimeNs until = 0;  // promised latest start
};

enum class SchedPolicy : std::uint8_t { Fifo, Backfill };

class Scheduler {
 public:
  Scheduler(SchedPolicy policy, int nodes, int ranks_per_node,
            bool exclusive_nodes = true);

  /// Enqueues a job (call at its arrival time).  Throws
  /// std::invalid_argument if the job can never fit the machine.
  void submit(JobSpec spec);

  /// Marks a running job finished, releasing its allocation.
  void finished(std::int64_t job_id, TimeNs now);

  /// Makes all launch decisions possible at `now`, in queue order.
  [[nodiscard]] std::vector<Launch> poll(TimeNs now);

  [[nodiscard]] bool allDone() const {
    return queue_.empty() && running_.empty();
  }
  [[nodiscard]] int queuedCount() const {
    return static_cast<int>(queue_.size());
  }
  [[nodiscard]] const NodePool& pool() const { return pool_; }
  /// Log of every head reservation granted (Backfill policy only).
  [[nodiscard]] const std::vector<HeadReservation>& reservations() const {
    return reservations_;
  }

  /// Queue order: priority desc, then arrival, then id.
  [[nodiscard]] static bool queuedBefore(const JobSpec& a, const JobSpec& b);

 private:
  struct Running {
    JobSpec spec;
    TimeNs start = 0;
    NodePool::Alloc alloc;
  };

  /// Earliest time `demand` units can be free given the running set's
  /// estimates; also yields the spare units at that time beyond `demand`.
  [[nodiscard]] TimeNs shadowTime(int demand, TimeNs now, int* extra) const;

  SchedPolicy policy_;
  NodePool pool_;
  std::vector<JobSpec> queue_;  // kept sorted by queuedBefore
  std::vector<Running> running_;
  std::vector<HeadReservation> reservations_;
};

}  // namespace ovp::cluster
