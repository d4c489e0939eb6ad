#include "cluster/runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/kernels.hpp"
#include "mpi/machine.hpp"
#include "mpi/mpi.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"

namespace ovp::cluster {

namespace {

/// Driver-side mailbox of one worker rank.  Assignment fields are written
/// by the driver *before* the lookahead-delayed go event, result fields by
/// the worker *before* the lookahead-delayed completion event; the engine's
/// window barrier orders each write against its reader, so the slots are
/// race-free without locks (ownership strictly alternates).
struct Mailbox {
  bool go = false;
  bool stop = false;
  const JobSpec* spec = nullptr;
  std::shared_ptr<const std::vector<Rank>> group;  // local -> global ranks
  overlap::Report report;
  DurationNs link_wait_delta = 0;
  TimeNs body_end = 0;
};

std::string soloKey(const JobSpec& spec) {
  return spec.kernel + '/' + spec.klass + '/' + std::to_string(spec.nranks);
}

}  // namespace

ClusterRuntime::ClusterRuntime(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nodes < 1) cfg_.nodes = 1;
  if (cfg_.ranks_per_node < 1) cfg_.ranks_per_node = 1;
  cfg_.fabric.ranks_per_node = cfg_.ranks_per_node;
}

const ClusterRuntime::Solo& ClusterRuntime::soloFor(const JobSpec& spec) {
  const std::string key = soloKey(spec);
  auto it = solo_cache_.find(key);
  if (it != solo_cache_.end()) return it->second;

  // Dedicated idle fabric, same parameters (and node geometry: solo rank i
  // sits on node i/rpn, matching the contiguous slots an exclusive cluster
  // allocation hands out).  Run *before* the campaign engine starts: the
  // two simulations never nest.
  mpi::JobConfig jc;
  jc.nranks = spec.nranks;
  jc.fabric = cfg_.fabric;
  jc.mpi = cfg_.mpi;
  jc.workers = cfg_.workers;
  mpi::Machine machine(jc);
  machine.run([&spec](mpi::Mpi& mpi) { runKernelBody(mpi, spec); });
  Solo solo;
  solo.duration = machine.finishTime();
  if (!machine.reports().empty()) {
    solo.max_overlap_pct =
        overlap::mergeReports(machine.reports()).whole.total.maxPct();
  }
  ++baseline_runs_;
  return solo_cache_.emplace(key, solo).first->second;
}

CampaignResult ClusterRuntime::run(std::vector<JobSpec> jobs,
                                   std::ostream& agg_out) {
  launch_log_.clear();
  reservations_.clear();
  baseline_runs_ = 0;

  // Submission order: arrival, then id — a pure function of the workload.
  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });

  // Solo baselines run up front on their own engines (never nested inside
  // the campaign engine), in workload order, one per distinct job shape.
  if (cfg_.baselines) {
    for (const JobSpec& j : jobs) (void)soloFor(j);
  }

  const int nworkers = cfg_.nodes * cfg_.ranks_per_node;
  const Rank driver = static_cast<Rank>(nworkers);

  sim::Engine engine;
  net::Fabric fabric(engine, cfg_.fabric, nworkers + 1);
  // The driver rank lands on its own alignment block (nworkers is a
  // multiple of ranks_per_node), so scheduler state stays single-threaded.
  engine.setWorkers(cfg_.workers);
  const DurationNs lookahead = engine.lookahead();

  Scheduler sched(cfg_.policy, cfg_.nodes, cfg_.ranks_per_node,
                  cfg_.exclusive_nodes);
  Aggregator agg(cfg_.agg);

  // State shared between the driver and the lookahead-delayed events; lives
  // in this frame, which outlives engine.run().
  struct RunJob {
    JobSpec spec;
    int remaining = 0;
    TimeNs end = 0;
  };
  std::vector<Mailbox> mail(static_cast<std::size_t>(nworkers));
  std::vector<Rank> rank_done;        // driver partition only
  std::vector<std::int64_t> rank_job(static_cast<std::size_t>(nworkers), -1);
  std::map<std::int64_t, RunJob> running;
  CampaignResult result;

  engine.run(nworkers + 1, [&](sim::Context& ctx) {
    if (ctx.rank() != driver) {
      // ---- worker rank: mailbox loop, one kernel body per assignment ----
      Mailbox& mb = mail[static_cast<std::size_t>(ctx.rank())];
      const Rank g = ctx.rank();
      const bool count_nic =
          fabric.faultEnabled() || cfg_.fabric.vci.enabled();
      for (;;) {
        while (!mb.go && !mb.stop) ctx.sleep();
        if (mb.stop) break;
        mb.go = false;
        const DurationNs lw0 = fabric.linkWait(g);
        // The report gets what this rank's NIC counted during the body.  A
        // plain fabric counts nothing, so its campaign takes no snapshot.
        mpi::NicCounters nic0;
        if (count_nic) nic0 = mpi::nicCounters(fabric, g);
        {
          mpi::MpiConfig mcfg = cfg_.mpi;
          mcfg.group = mb.group;
          mpi::Mpi mpi(ctx, fabric, mcfg);
          runKernelBody(mpi, *mb.spec);
          mb.report =
              mpi.instrumented() ? mpi.finalizeReport() : overlap::Report{};
          if (count_nic && mpi.instrumented()) {
            mpi::NicCounters gained = mpi::nicCounters(fabric, g);
            gained.faults -= nic0.faults;
            gained.vci -= nic0.vci;
            mb.report.faults = gained.faults;
            mb.report.vci = std::move(gained.vci);
          }
        }
        mb.link_wait_delta = fabric.linkWait(g) - lw0;
        mb.body_end = ctx.now();
        mb.group.reset();
        engine.scheduleFor(driver, ctx.now() + lookahead,
                           [&rank_done, &engine, driver, g] {
                             rank_done.push_back(g);
                             engine.wake(driver);
                           });
      }
      return;
    }

    // ---- driver rank: submit arrivals, drain completions, launch ----
    std::size_t next = 0;
    TimeNs arrival_wake = -1;
    for (;;) {
      const TimeNs now = ctx.now();
      while (next < jobs.size() && jobs[next].arrival <= now) {
        sched.submit(jobs[next++]);
      }
      std::vector<Rank> done;
      done.swap(rank_done);
      for (Rank g : done) {
        Mailbox& mb = mail[static_cast<std::size_t>(g)];
        const std::int64_t id = rank_job[static_cast<std::size_t>(g)];
        agg.addRankReport(id, mb.report, mb.link_wait_delta);
        mb.report = overlap::Report{};  // drop per-rank state eagerly
        rank_job[static_cast<std::size_t>(g)] = -1;
        RunJob& rj = running.at(id);
        rj.end = std::max(rj.end, mb.body_end);
        if (--rj.remaining == 0) {
          sched.finished(id, now);
          DurationNs solo_duration = 0;
          double solo_pct = 0.0;
          if (cfg_.baselines) {
            const Solo& solo = solo_cache_.at(soloKey(rj.spec));
            solo_duration = solo.duration;
            solo_pct = solo.max_overlap_pct;
          }
          agg.jobFinished(id, rj.end, solo_duration, solo_pct);
          running.erase(id);
        }
      }
      for (Launch& l : sched.poll(now)) {
        const TimeNs t0 = now + lookahead;
        auto group =
            std::make_shared<const std::vector<Rank>>(l.alloc.ranks);
        RunJob& rj = running[l.spec.id];
        rj.spec = l.spec;
        rj.remaining = l.spec.nranks;
        rj.end = 0;
        agg.jobStarted(l.spec, t0, l.alloc.nodes);
        launch_log_.push_back({l.spec.id, t0, l.alloc.nodes, l.backfilled});
        if (l.backfilled) ++result.backfills;
        for (Rank g : l.alloc.ranks) {
          Mailbox& mb = mail[static_cast<std::size_t>(g)];
          mb.spec = &rj.spec;
          mb.group = group;
          rank_job[static_cast<std::size_t>(g)] = l.spec.id;
          engine.scheduleFor(g, t0, [&mb, &engine, g] {
            mb.go = true;
            engine.wake(g);
          });
        }
      }
      if (next >= jobs.size() && sched.allDone()) break;
      if (next < jobs.size() && jobs[next].arrival != arrival_wake) {
        // One wake per distinct pending arrival; completions wake us too.
        arrival_wake = jobs[next].arrival;
        engine.schedule(arrival_wake,
                        [&engine, driver] { engine.wake(driver); });
      }
      ctx.sleep();
    }
    for (Rank g = 0; g < driver; ++g) {
      Mailbox& mb = mail[static_cast<std::size_t>(g)];
      engine.scheduleFor(g, ctx.now() + lookahead, [&mb, &engine, g] {
        mb.stop = true;
        engine.wake(g);
      });
    }
  });

  reservations_ = sched.reservations();
  workers_used_ = engine.workersUsed();
  result.jobs = static_cast<std::int64_t>(jobs.size());
  result.makespan = engine.finishTime();
  result.peak_open_jobs = agg.peakOpenJobs();
  result.baselines = baseline_runs_;
  result.records_written = agg.finalize(agg_out);
  return result;
}

}  // namespace ovp::cluster
