// Deterministic discrete-event simulation engine.
//
// The engine models a cluster job: N simulated processes (ranks), each
// running ordinary *blocking* C++ code on a lightweight stackful fiber
// (sim/fiber.hpp), plus timed event handlers (used by the NIC/fabric
// model).  A fiber switch is a userspace register swap, so handing control
// between the scheduler and a rank costs nanoseconds, not futex round
// trips.
//
// Two execution modes, selected with setWorkers():
//
//   * Sequential (workers <= 1, the default): one host thread pops events
//     from a calendar queue in (time, src, seq) order and runs them.
//
//   * Conservative parallel (workers > 1): ranks are partitioned into
//     contiguous blocks, one block per worker thread, each with its own
//     event queue and clock.  The fabric's minimum cross-rank delay
//     ("lookahead" L, see setLookahead) bounds how far any rank can affect
//     another, so all events in the window [T, T+L) — T being the global
//     minimum pending time — are causally independent across partitions
//     and run concurrently.  Events created for a *different* partition
//     must lie at least L in the future; they are staged in per-worker
//     outboxes and merged at the window barrier, before their time becomes
//     reachable.  See DESIGN.md §5.14 for the full protocol.
//
// Determinism.  Every event carries the key (time, src, seq): `src` is the
// domain (rank, or -1 for the driver) whose execution created it, `seq`
// that domain's private creation counter.  Each domain's execution history
// is identical in both modes (induction over windows), so keys — and with
// them every observable: event counts, finish times, traces, reports — are
// bit-identical at any worker count.  Fault injection keeps this: its dice
// are counter-based per transmission (net/fault.hpp), not a shared stream.
//
// Rank code interacts with the engine through sim::Context:
//   * compute(d)/advance(d): advance virtual time by d (the rank is busy).
//   * sleep(): block until some event handler calls wake(rank).
//   * schedule()/after(): enqueue timed handlers for the *calling* rank's
//     domain; wakeAt()/scheduleFor() target other ranks across partitions.
//
// A wake() targeting a rank that is currently busy (inside compute()) is
// remembered as a pending token and consumed by the rank's next sleep(), so
// the usual `while (!cond) sleep();` loop never loses a wakeup.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "util/types.hpp"

namespace ovp::sim {

class Engine;

/// Per-rank handle passed to rank main functions.  Valid only for the
/// duration of Engine::run.
class Context {
 public:
  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int worldSize() const;
  [[nodiscard]] TimeNs now() const;

  /// Advances this rank's virtual clock by d (busy time).  Application code
  /// uses this to model user computation; library code uses it to model
  /// per-call overheads.  d must be >= 0.
  void compute(DurationNs d);

  /// Semantic alias of compute() for in-library costs.
  void advance(DurationNs d) { compute(d); }

  /// Blocks until a handler calls Engine::wake(rank()).  Returns
  /// immediately (consuming the token) if a wake is already pending.
  void sleep();

  [[nodiscard]] Engine& engine() { return engine_; }

 private:
  friend class Engine;
  Context(Engine& engine, Rank rank) : engine_(engine), rank_(rank) {}
  Engine& engine_;
  Rank rank_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `rankMain` once per rank on `nranks` simulated processes, starting
  /// them all at virtual time 0, and returns when every rank has finished
  /// and no runnable work remains.  Rethrows the first exception raised by
  /// any rank or handler.  May be called repeatedly (each call is an
  /// independent job; virtual time restarts at 0).
  void run(int nranks, const std::function<void(Context&)>& rankMain);

  /// Current virtual time: the executing partition's clock from rank code
  /// and handlers during run(); the finish time of the last run otherwise.
  [[nodiscard]] TimeNs now() const;

  /// Enqueues `handler` at absolute time max(t, now()) on the calling
  /// domain.  The clamp to now() is part of the contract: a handler
  /// scheduled for the past runs at the current instant, ordered *after*
  /// every same-time event created earlier by this domain (the (time, src,
  /// seq) key; see file header).  Returns the effective time.  Must be
  /// called from rank code or a handler during run().
  TimeNs schedule(TimeNs t, InlineFn handler);

  /// Enqueues `handler` to run after duration d from now.
  void after(DurationNs d, InlineFn handler) {
    schedule(now() + d, std::move(handler));
  }

  /// Enqueues `handler` at max(t, now()) on `owner`'s domain — the handler
  /// runs on owner's partition with now() == the event time there.  If
  /// `owner` lives on a different partition than the caller, t must be at
  /// least now() + lookahead (throws std::logic_error otherwise); such
  /// events are merged at the next window barrier.  Returns the effective
  /// time.
  TimeNs scheduleFor(Rank owner, TimeNs t, InlineFn handler);

  /// Requests that `rank` be resumed if it is (or next goes) to sleep.
  /// Idempotent while a previous wake is still pending.  The target must
  /// live on the calling partition (always true sequentially); use wakeAt()
  /// to wake across partitions.
  void wake(Rank rank);

  /// Delivers a wake token to `rank` at absolute time t: if the rank is
  /// sleeping then, it resumes at t; if busy, the token is consumed by its
  /// next sleep().  Cross-partition legal when t >= now() + lookahead.
  void wakeAt(Rank rank, TimeNs t);

  /// Requested worker count for subsequent runs.  Values <= 1, a zero
  /// lookahead, or fewer than 2 ranks all select sequential mode.
  void setWorkers(int workers) { workers_requested_ = workers; }
  /// Worker count actually used by the last run.
  [[nodiscard]] int workersUsed() const { return workers_used_; }

  /// Minimum cross-partition event delay, in ns — the conservative-parallel
  /// lookahead.  The fabric exports its minimum link latency here
  /// (FabricParams::lookahead()) when it attaches to the engine.
  void setLookahead(DurationNs l) { lookahead_ = l; }
  [[nodiscard]] DurationNs lookahead() const { return lookahead_; }

  /// Partition-boundary alignment, in ranks.  Parallel partitions always
  /// cover whole blocks of `align` consecutive ranks, so state shared by a
  /// block (e.g. a multi-rank node's NIC ports, see net::Fabric) is only
  /// ever touched from one worker thread.  The fabric exports its
  /// ranks-per-node here when it attaches; 1 (the default) reproduces the
  /// unaligned partitioning bit-for-bit.
  void setPartitionAlign(int align) { part_align_ = align < 1 ? 1 : align; }

  /// Virtual time at which the last run() finished (max over final events).
  [[nodiscard]] TimeNs finishTime() const { return finish_time_; }

  /// Total events processed by the last run (diagnostic).  Identical across
  /// worker counts.
  [[nodiscard]] std::int64_t eventsProcessed() const {
    return events_processed_;
  }

 private:
  enum class RankState : std::uint8_t { Running, Busy, Sleeping, Done };

  struct RankSlot {
    std::unique_ptr<Fiber> fiber;
    Engine* engine = nullptr;  // fiber entry argument
    Rank rank = -1;
    RankState state = RankState::Sleeping;
    bool wake_pending = false;
    int part = 0;  // partition index
  };

  /// One partition: a contiguous rank block, its event queue and clock, and
  /// (parallel mode) the worker thread driving it.  Sequential mode is one
  /// partition driven by the calling thread.
  struct Partition {
    int index = 0;
    Rank lo = 0, hi = 0;  // ranks [lo, hi)
    CalendarQueue queue;
    TimeNs now = 0;
    Rank current_domain = -1;  // domain executing right now (-1: scheduler)
    std::int64_t events = 0;
    int alive = 0;
    FiberContext sched_ctx;
    std::vector<std::vector<Event>> outbox;  // per destination partition
    std::thread thread;
  };

  // --- rank-fiber side (called via Context) ---
  friend class Context;
  void rankCompute(Rank rank, DurationNs d);
  void rankSleep(Rank rank);
  static void rankFiberEntry(void* arg);
  void finishRank(Partition& p, Rank rank, std::exception_ptr failure);

  // --- scheduler side ---
  enum class WindowDecision : std::uint8_t { Run, Abort, Done };

  [[nodiscard]] int effectiveWorkers(int nranks) const;
  RankSlot& slot(Rank r) { return *ranks_[static_cast<std::size_t>(r)]; }
  std::int64_t nextSeq(Rank domain) {
    return domain_seq_[static_cast<std::size_t>(domain + 1)]++;
  }
  TimeNs pushEvent(Partition& p, Rank owner, TimeNs t, EventKind kind,
                   InlineFn fn);
  void execute(Partition& p, Event& e);
  void resumeFiber(Partition& p, RankSlot& s);
  void sequentialLoop(Partition& p);
  void workerLoop(Partition& p);
  /// Merges outboxes, then decides the next window (or done/deadlock/abort).
  /// Runs single-threaded between the window barriers.
  void coordinateWindow();
  void unwindPartition(Partition& p);
  void recordError(std::exception_ptr e);
  void deadlock();
  /// Blocks until every worker arrives; the last to arrive runs
  /// coordinateWindow() before releasing the others.
  void barrierWait();

  /// The partition the calling thread is currently driving (null outside
  /// run()).  Rank fibers share their worker thread's TLS, so this is valid
  /// from rank code, handlers and the scheduler alike.
  static thread_local Partition* t_part;

  std::vector<std::unique_ptr<RankSlot>> ranks_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<std::int64_t> domain_seq_;  // [0]: driver, [r+1]: rank r
  const std::function<void(Context&)>* rank_main_ = nullptr;

  int workers_requested_ = 1;
  int workers_used_ = 1;
  int part_align_ = 1;
  DurationNs lookahead_ = 0;
  TimeNs finish_time_ = 0;
  std::int64_t events_processed_ = 0;

  // Parallel-mode shared state.  `aborting_` is also read by rank fibers in
  // sequential mode (hot path), hence atomic with relaxed loads; the window
  // barrier provides all cross-thread ordering.  window_horizon_ and
  // window_decision_ are written only by the barrier coordinator (all other
  // workers blocked) and read after the barrier releases.
  std::atomic<bool> aborting_{false};
  std::atomic<bool> abort_requested_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  TimeNs window_horizon_ = 0;
  WindowDecision window_decision_ = WindowDecision::Run;
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  int barrier_parties_ = 0;
  std::uint64_t barrier_phase_ = 0;
};

}  // namespace ovp::sim
