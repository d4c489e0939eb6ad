// Tests for the multi-job cluster layer (src/cluster/): node allocation,
// FIFO/backfill scheduling (including the randomized property tests that
// pin the determinism and no-over-subscription guarantees), the streaming
// aggregation service's byte-equivalence with monolithic merging, and
// whole-campaign runs on a shared fabric — bit-identical across engine
// worker counts, with non-negative interference slowdown on a pinned
// contended fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/aggregator.hpp"
#include "cluster/job.hpp"
#include "cluster/kernels.hpp"
#include "cluster/runtime.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/workload.hpp"
#include "line_mutator.hpp"
#include "mpi/machine.hpp"
#include "net/vci.hpp"
#include "overlap/report.hpp"
#include "util/rng.hpp"

namespace ovp::cluster {
namespace {

JobSpec spec(std::int64_t id, int nranks, TimeNs arrival = 0, int prio = 0,
             DurationNs estimate = 1000, std::string kernel = "ep") {
  JobSpec j;
  j.id = id;
  j.kernel = std::move(kernel);
  j.klass = 'S';
  j.nranks = nranks;
  j.arrival = arrival;
  j.priority = prio;
  j.estimate = estimate;
  return j;
}

// ---------------------------------------------------------------- NodePool

TEST(NodePool, ExclusiveHandsOutWholeLowestNodes) {
  NodePool pool(4, 2, /*exclusive=*/true);
  NodePool::Alloc a;
  ASSERT_TRUE(pool.tryAlloc(3, a));  // 2 nodes, tail node half-ranked
  EXPECT_EQ(a.nodes, (std::vector<int>{0, 1}));
  EXPECT_EQ(a.ranks, (std::vector<Rank>{0, 1, 2}));
  NodePool::Alloc b;
  ASSERT_TRUE(pool.tryAlloc(1, b));
  // Node 1 is only half-ranked but exclusively reserved: b skips to node 2.
  EXPECT_EQ(b.nodes, (std::vector<int>{2}));
  NodePool::Alloc c;
  EXPECT_FALSE(pool.tryAlloc(4, c));  // only node 3 is free
  pool.release(a);
  ASSERT_TRUE(pool.tryAlloc(4, c));
  EXPECT_EQ(c.nodes, (std::vector<int>{0, 1}));
}

TEST(NodePool, SharedPacksSlotsAndRollsBack) {
  NodePool pool(2, 2, /*exclusive=*/false);
  NodePool::Alloc a;
  ASSERT_TRUE(pool.tryAlloc(3, a));
  EXPECT_EQ(a.ranks, (std::vector<Rank>{0, 1, 2}));
  EXPECT_EQ(a.nodes, (std::vector<int>{0, 1}));
  NodePool::Alloc b;
  EXPECT_FALSE(pool.tryAlloc(2, b));  // 1 slot left: must roll back cleanly
  ASSERT_TRUE(pool.tryAlloc(1, b));
  EXPECT_EQ(b.ranks, (std::vector<Rank>{3}));
}

// --------------------------------------------------------------- Scheduler

TEST(Scheduler, FifoRunsInPriorityArrivalIdOrder) {
  Scheduler sched(SchedPolicy::Fifo, 2, 2);
  sched.submit(spec(1, 4, 0, /*prio=*/0));
  sched.submit(spec(2, 4, 0, /*prio=*/1));
  sched.submit(spec(3, 4, 0, /*prio=*/1));
  auto launches = sched.poll(0);
  ASSERT_EQ(launches.size(), 1U);  // whole machine each: one at a time
  EXPECT_EQ(launches[0].spec.id, 2);  // higher priority first
  sched.finished(2, 10);
  launches = sched.poll(10);
  ASSERT_EQ(launches.size(), 1U);
  EXPECT_EQ(launches[0].spec.id, 3);  // same priority: lower id
}

TEST(Scheduler, FifoHeadBlocksSmallerJobsBehindIt) {
  Scheduler sched(SchedPolicy::Fifo, 2, 1);
  sched.submit(spec(1, 1, 0));
  auto first = sched.poll(0);
  ASSERT_EQ(first.size(), 1U);
  sched.submit(spec(2, 2, 1));  // needs both nodes: blocked
  sched.submit(spec(3, 1, 2));  // would fit, but FIFO must not jump
  EXPECT_TRUE(sched.poll(2).empty());
  sched.finished(1, 5);
  auto launches = sched.poll(5);
  // The head takes both nodes; 3 stays queued behind it even though a slot
  // would have fit it earlier.
  ASSERT_EQ(launches.size(), 1U);
  EXPECT_EQ(launches[0].spec.id, 2);
  EXPECT_EQ(sched.queuedCount(), 1);
}

TEST(Scheduler, BackfillStartsShortJobBehindBlockedHead) {
  Scheduler sched(SchedPolicy::Backfill, 2, 1);
  sched.submit(spec(1, 1, 0, 0, /*estimate=*/100));
  ASSERT_EQ(sched.poll(0).size(), 1U);
  sched.submit(spec(2, 2, 1, 0, 100));       // head: blocked until t=100
  sched.submit(spec(3, 1, 2, 0, /*est=*/50));  // fits before the shadow
  auto launches = sched.poll(2);
  ASSERT_EQ(launches.size(), 1U);
  EXPECT_EQ(launches[0].spec.id, 3);
  EXPECT_TRUE(launches[0].backfilled);
  EXPECT_EQ(launches[0].head_reservation, 100);
  ASSERT_FALSE(sched.reservations().empty());
  EXPECT_EQ(sched.reservations().back().job, 2);
  EXPECT_EQ(sched.reservations().back().until, 100);
  // A long job (estimate past the shadow, needs the head's units) must not.
  sched.submit(spec(4, 1, 3, 0, /*est=*/500));
  EXPECT_TRUE(sched.poll(3).empty());
}

TEST(Scheduler, SubmitRejectsImpossibleJob) {
  Scheduler sched(SchedPolicy::Fifo, 2, 2);
  EXPECT_THROW(sched.submit(spec(1, 5)), std::invalid_argument);
}

/// Replays a workload through the scheduler outside any engine: launches
/// and finishes happen exactly at estimates (exact information), which is
/// the regime where EASY backfill provably never delays the head.
struct Replay {
  struct Event {
    std::int64_t job;
    TimeNs start;
    std::vector<Rank> ranks;
    bool backfilled;
  };
  std::vector<Event> events;
  std::map<std::int64_t, TimeNs> started;
  std::vector<HeadReservation> reservations;
};

Replay replaySchedule(SchedPolicy policy, int nodes, int rpn,
                      std::vector<JobSpec> jobs) {
  std::sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  });
  Scheduler sched(policy, nodes, rpn);
  Replay rp;
  std::vector<std::pair<TimeNs, std::int64_t>> ends;  // (end, job)
  std::size_t next = 0;
  TimeNs now = 0;
  const int capacity = sched.pool().capacityUnits();
  std::map<std::int64_t, int> running_units;
  int used = 0;
  while (next < jobs.size() || !ends.empty() || sched.queuedCount() > 0) {
    // Advance to the next arrival or completion.
    TimeNs t = kTimeNever;
    if (next < jobs.size()) t = jobs[next].arrival;
    if (!ends.empty()) {
      auto it = std::min_element(ends.begin(), ends.end());
      t = std::min(t, it->first);
    }
    if (t == kTimeNever) break;
    now = std::max(now, t);
    for (auto it = ends.begin(); it != ends.end();) {
      if (it->first <= now) {
        sched.finished(it->second, now);
        used -= running_units.at(it->second);
        running_units.erase(it->second);
        it = ends.erase(it);
      } else {
        ++it;
      }
    }
    while (next < jobs.size() && jobs[next].arrival <= now) {
      sched.submit(jobs[next++]);
    }
    for (Launch& l : sched.poll(now)) {
      rp.events.push_back({l.spec.id, now, l.alloc.ranks, l.backfilled});
      rp.started[l.spec.id] = now;
      const int units = sched.pool().demandUnits(l.spec.nranks);
      used += units;
      running_units[l.spec.id] = units;
      EXPECT_LE(used, capacity) << "over-subscription at t=" << now;
      ends.emplace_back(now + std::max<DurationNs>(l.spec.estimate, 1),
                        l.spec.id);
    }
  }
  EXPECT_TRUE(sched.allDone());
  rp.reservations = sched.reservations();
  return rp;
}

TEST(SchedulerProperty, RandomizedNoOversubscriptionAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const int nodes = 2 + static_cast<int>(rng.below(4));
    const int rpn = 1 + static_cast<int>(rng.below(3));
    std::vector<JobSpec> jobs;
    const int njobs = 30 + static_cast<int>(rng.below(40));
    TimeNs arr = 0;
    for (int i = 0; i < njobs; ++i) {
      arr += static_cast<TimeNs>(rng.below(300));
      jobs.push_back(spec(i + 1, 1 + static_cast<int>(rng.below(
                                          static_cast<std::uint64_t>(
                                              nodes * rpn))),
                          arr, static_cast<int>(rng.below(3)),
                          1 + static_cast<DurationNs>(rng.below(2000))));
    }
    for (SchedPolicy policy : {SchedPolicy::Fifo, SchedPolicy::Backfill}) {
      // Over-subscription is asserted inside replaySchedule; every ranks
      // vector must also be slot-disjoint among concurrently running jobs
      // (implied by the unit accounting plus NodePool's slot bitmap, and
      // cheap to double-check here).
      Replay a = replaySchedule(policy, nodes, rpn, jobs);
      Replay b = replaySchedule(policy, nodes, rpn, jobs);
      ASSERT_EQ(a.events.size(), b.events.size());
      ASSERT_EQ(a.events.size(), jobs.size());
      for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].job, b.events[i].job);
        EXPECT_EQ(a.events[i].start, b.events[i].start);
        EXPECT_EQ(a.events[i].ranks, b.events[i].ranks);
        EXPECT_EQ(a.events[i].backfilled, b.events[i].backfilled);
      }
    }
  }
}

TEST(SchedulerProperty, BackfillNeverDelaysBlockedHeadPastItsReservation) {
  // EASY backfill's guarantee, in the regime where it is provable (exact
  // runtime estimates, no later higher-priority arrival displacing the
  // head): a blocked queue head starts no later than the FIRST reservation
  // it was granted — backfilled jobs either finish by the shadow time or
  // use capacity the head does not need, so they can never push it back.
  // With mixed priorities a new arrival may legitimately jump a blocked
  // head (that is a priority decision, not a backfill); there the binding
  // promise is the LAST reservation recorded before the start.
  std::int64_t total_backfills = 0;
  std::int64_t total_heads = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const bool uniform_priority = seed <= 4;
    util::Rng rng(seed * 977);
    const int nodes = 3;
    const int rpn = 2;
    std::vector<JobSpec> jobs;
    TimeNs arr = 0;
    for (int i = 0; i < 40; ++i) {
      arr += static_cast<TimeNs>(rng.below(150));
      jobs.push_back(spec(
          i + 1, 1 + static_cast<int>(rng.below(6)), arr,
          uniform_priority ? 0 : static_cast<int>(rng.below(2)),
          1 + static_cast<DurationNs>(rng.below(1500))));
    }
    Replay bf = replaySchedule(SchedPolicy::Backfill, nodes, rpn, jobs);
    std::map<std::int64_t, TimeNs> promise;
    for (const HeadReservation& r : bf.reservations) {
      ASSERT_TRUE(bf.started.contains(r.job));
      if (uniform_priority) {
        promise.try_emplace(r.job, r.until);  // first reservation binds
      } else if (r.at <= bf.started.at(r.job)) {
        promise[r.job] = r.until;  // last pre-start reservation binds
      }
    }
    total_heads += static_cast<std::int64_t>(promise.size());
    for (const auto& [job, until] : promise) {
      EXPECT_LE(bf.started.at(job), until)
          << "job " << job << " started past its reservation (seed " << seed
          << ", uniform_priority=" << uniform_priority << ")";
    }
    for (const Replay::Event& e : bf.events) total_backfills += e.backfilled;
  }
  // The property must have had teeth: heads were blocked and jobs jumped.
  EXPECT_GT(total_heads, 0);
  EXPECT_GT(total_backfills, 0);
}

// -------------------------------------------------- streaming aggregation

std::vector<overlap::Report> sampleReports(int nranks) {
  mpi::JobConfig jc;
  jc.nranks = nranks;
  mpi::Machine machine(jc);
  machine.run([](mpi::Mpi& mpi) {
    JobSpec j = spec(1, mpi.size());
    j.kernel = "cg";
    runKernelBody(mpi, j);
  });
  return machine.reports();
}

TEST(MergeAccumulator, MatchesMonolithicMergeByteForByte) {
  const std::vector<overlap::Report> reports = sampleReports(4);
  ASSERT_EQ(reports.size(), 4U);
  overlap::MergeAccumulator acc;
  for (const overlap::Report& r : reports) acc.add(r);
  EXPECT_EQ(acc.count(), 4);
  std::ostringstream streaming;
  acc.merged().save(streaming);
  std::ostringstream monolithic;
  overlap::mergeReports(reports).save(monolithic);
  EXPECT_EQ(streaming.str(), monolithic.str());
}

TEST(Aggregator, StreamingSpillMatchesInMemoryByteForByte) {
  const std::vector<overlap::Report> reports = sampleReports(2);
  ASSERT_EQ(reports.size(), 2U);

  auto feed = [&](Aggregator& agg) {
    // Jobs finish out of id order; the output must still be id-sorted.
    for (std::int64_t id : {3, 1, 5, 2, 4}) {
      JobSpec j = spec(id, 2, /*arrival=*/id * 10);
      agg.jobStarted(j, id * 100, {0});
      agg.addRankReport(id, reports[0], 7);
      agg.addRankReport(id, reports[1], 5);
      agg.jobFinished(id, id * 100 + 50, /*solo=*/40, /*solo_pct=*/10.0);
    }
  };

  Aggregator in_memory(AggregatorConfig{});
  feed(in_memory);
  std::ostringstream mono;
  EXPECT_EQ(in_memory.finalize(mono), 5);

  AggregatorConfig spill_cfg;
  spill_cfg.spill_prefix =
      testing::TempDir() + "cluster_test_agg";
  spill_cfg.shard_jobs = 2;  // forces 3 shards and a real k-way merge
  Aggregator spilling(spill_cfg);
  feed(spilling);
  EXPECT_LE(spilling.bufferedRecords(), 2);
  std::ostringstream streamed;
  EXPECT_EQ(spilling.finalize(streamed), 5);

  EXPECT_EQ(mono.str(), streamed.str());

  // Both decode to 5 records with the interference metrics filled in.
  std::istringstream is(streamed.str());
  std::vector<JobRecord> records;
  ASSERT_TRUE(Aggregator::loadAll(is, records));
  ASSERT_EQ(records.size(), 5U);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].spec.id, static_cast<std::int64_t>(i) + 1);
    EXPECT_EQ(records[i].solo_duration, 40);
    EXPECT_GT(records[i].slowdown, 0.0);  // duration 50 vs solo 40
  }
}

TEST(Aggregator, LifecycleErrorsThrow) {
  Aggregator agg(AggregatorConfig{});
  const JobSpec j = spec(1, 2);
  agg.jobStarted(j, 0, {0});
  EXPECT_THROW(agg.jobStarted(j, 0, {0}), std::logic_error);
  EXPECT_THROW(agg.addRankReport(99, overlap::Report{}, 0), std::logic_error);
  agg.addRankReport(1, overlap::Report{}, 0);
  // Finishing with 1 of 2 rank reports is a protocol violation.
  EXPECT_THROW(agg.jobFinished(1, 10, 0, 0.0), std::logic_error);
  std::ostringstream os;
  EXPECT_THROW((void)agg.finalize(os), std::logic_error);  // job still open
}

TEST(JobRecord, SaveLoadRoundTripsByteForByte) {
  const std::vector<overlap::Report> reports = sampleReports(2);
  Aggregator agg(AggregatorConfig{});
  JobSpec j = spec(7, 2, 123, 1, 4567, "mg");
  j.klass = 'A';
  agg.jobStarted(j, 1000, {2, 3});
  agg.addRankReport(7, reports[0], 11);
  agg.addRankReport(7, reports[1], 22);
  agg.jobFinished(7, 2000, 900, 33.25);
  std::ostringstream os;
  ASSERT_EQ(agg.finalize(os), 1);

  std::istringstream is(os.str());
  std::vector<JobRecord> records;
  ASSERT_TRUE(Aggregator::loadAll(is, records));
  ASSERT_EQ(records.size(), 1U);
  std::ostringstream again;
  again << "ovprof-agg-v1\n";
  records[0].save(again);
  again << "agg.end 1\n";
  EXPECT_EQ(os.str(), again.str());
  EXPECT_EQ(records[0].spec.kernel, "mg");
  EXPECT_EQ(records[0].spec.klass, 'A');
  EXPECT_EQ(records[0].nodes, (std::vector<int>{2, 3}));
  EXPECT_EQ(records[0].link_wait, 33);
}

// Seeded line mutants of an ovprof-agg-v1 aggregate: loadAll never throws,
// and what it accepts saves back to text it loads again unchanged.  Among
// the mutants is a `nodes` count of 2^63-1 followed by a few entries: the
// declared count alone must not size the node list.
TEST(Aggregator, MutatedLinesNeverCrash) {
  const std::vector<overlap::Report> reports = sampleReports(2);
  Aggregator agg(AggregatorConfig{});
  const std::vector<std::vector<int>> nodes = {{0}, {1, 2}, {3}};
  for (std::int64_t id = 1; id <= 3; ++id) {
    agg.jobStarted(spec(id, 2, id * 10), id * 100,
                   nodes[static_cast<std::size_t>(id - 1)]);
    agg.addRankReport(id, reports[0], 7);
    agg.addRankReport(id, reports[1], 5);
    agg.jobFinished(id, id * 100 + 50, 40, 10.0);
  }
  std::ostringstream good;
  ASSERT_EQ(agg.finalize(good), 3);
  std::vector<std::string> lines;
  std::istringstream split(good.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);

  const auto save = [](const std::vector<JobRecord>& records) {
    std::ostringstream os;
    os << "ovprof-agg-v1\n";
    for (const JobRecord& r : records) r.save(os);
    os << "agg.end " << records.size() << '\n';
    return os.str();
  };
  int loaded = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    std::string text;
    for (const std::string& line : fuzz::mutateLines(lines, seed, ' ')) {
      text += line + "\n";
    }
    std::istringstream is(text);
    std::vector<JobRecord> records;
    bool ok = false;
    ASSERT_NO_THROW(ok = Aggregator::loadAll(is, records)) << "seed " << seed;
    if (!ok) continue;
    ++loaded;
    const std::string once = save(records);
    std::istringstream again(once);
    ASSERT_TRUE(Aggregator::loadAll(again, records)) << "seed " << seed;
    EXPECT_EQ(save(records), once) << "seed " << seed;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 2000);
}

// ---------------------------------------------------------------- workload

TEST(Workload, ParsesCommentsAndRejectsBadLines) {
  std::istringstream good(
      "# header comment\n"
      "\n"
      "job 1 cg S 4 0 0 1000\n"
      "job 2 is B 2 500 1 2000\n");
  std::vector<JobSpec> jobs;
  std::string error;
  ASSERT_TRUE(parseWorkload(good, jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2U);
  EXPECT_EQ(jobs[1].kernel, "is");
  EXPECT_EQ(jobs[1].klass, 'B');

  for (const char* bad :
       {"job 1 cg S 4 0 0 1000\njob 1 ep S 1 0 0 1\n",   // duplicate id
        "job 2 frobnicate S 4 0 0 1000\n",               // unknown kernel
        "job 3 cg S 0 0 0 1000\n",                       // zero ranks
        "task 4 cg S 1 0 0 1000\n",                      // bad keyword
        "job 5 cg S 1 0 0\n"}) {                         // missing field
    std::istringstream is(bad);
    EXPECT_FALSE(parseWorkload(is, jobs, &error)) << bad;
    EXPECT_TRUE(jobs.empty());
    EXPECT_FALSE(error.empty());
  }
}

// Arrivals and estimates feed sums of virtual time: past the documented
// cap (2^50 ns) a line is rejected with its number instead of overflowing
// the campaign's start and end times.
TEST(Workload, RejectsTimesAboveTheCap) {
  std::vector<JobSpec> jobs;
  std::string error;
  std::istringstream at_cap(
      "job 1 cg S 4 1125899906842624 0 1125899906842624\n");
  ASSERT_TRUE(parseWorkload(at_cap, jobs, &error)) << error;
  for (const char* bad : {"job 1 cg S 4 9223372036854775807 0 1000\n",
                          "# estimate one past the cap\n"
                          "job 2 ep S 1 0 0 1125899906842625\n"}) {
    std::istringstream is(bad);
    EXPECT_FALSE(parseWorkload(is, jobs, &error)) << bad;
    EXPECT_TRUE(jobs.empty());
    EXPECT_EQ(error.rfind("line ", 0), 0U) << error;
    EXPECT_NE(error.find("cap"), std::string::npos) << error;
  }
}

TEST(Workload, RoundTripsThroughSaveAndParse) {
  const std::vector<JobSpec> jobs = synthWorkload(25, 42, 8);
  std::ostringstream os;
  saveWorkload(os, jobs);
  std::istringstream is(os.str());
  std::vector<JobSpec> again;
  ASSERT_TRUE(parseWorkload(is, again, nullptr));
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(again[i].id, jobs[i].id);
    EXPECT_EQ(again[i].kernel, jobs[i].kernel);
    EXPECT_EQ(again[i].klass, jobs[i].klass);
    EXPECT_EQ(again[i].nranks, jobs[i].nranks);
    EXPECT_EQ(again[i].arrival, jobs[i].arrival);
    EXPECT_EQ(again[i].priority, jobs[i].priority);
    EXPECT_EQ(again[i].estimate, jobs[i].estimate);
  }
}

// Seeded line mutants of a workload file: parseWorkload never throws,
// names the problem whenever it fails, and what it accepts saves back to
// a file it parses again unchanged.
TEST(Workload, MutatedLinesNeverCrash) {
  std::ostringstream good;
  saveWorkload(good, synthWorkload(12, 5, 8));
  std::vector<std::string> lines;
  std::istringstream split(good.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  int parsed = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    std::string text;
    for (const std::string& line : fuzz::mutateLines(lines, seed, ' ')) {
      text += line + "\n";
    }
    std::istringstream is(text);
    std::vector<JobSpec> jobs;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = parseWorkload(is, jobs, &error)) << "seed " << seed;
    ASSERT_EQ(ok, error.empty()) << "seed " << seed;
    if (!ok) continue;
    ++parsed;
    std::ostringstream once;
    saveWorkload(once, jobs);
    std::istringstream again(once.str());
    ASSERT_TRUE(parseWorkload(again, jobs, &error)) << "seed " << seed;
    std::ostringstream twice;
    saveWorkload(twice, jobs);
    EXPECT_EQ(twice.str(), once.str()) << "seed " << seed;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 1000);
}

TEST(Workload, SynthIsDeterministicPerSeed) {
  std::ostringstream a, b, c;
  saveWorkload(a, synthWorkload(40, 7, 8));
  saveWorkload(b, synthWorkload(40, 7, 8));
  saveWorkload(c, synthWorkload(40, 8, 8));
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str(), c.str());
  for (const JobSpec& j : synthWorkload(40, 7, 8)) {
    EXPECT_GE(j.nranks, 1);
    EXPECT_LE(j.nranks, 8);
    EXPECT_TRUE(kernelKnown(j.kernel));
  }
}

// ---------------------------------------------------------------- campaign

ClusterConfig smallConfig() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks_per_node = 2;
  cfg.agg.shard_jobs = 4;
  return cfg;
}

TEST(Campaign, BitIdenticalAcrossRerunsAndWorkerCounts) {
  const std::vector<JobSpec> jobs = synthWorkload(10, 3, 4);
  std::string baseline;
  for (int workers : {1, 1, 2, 4}) {  // first pair checks plain rerun too
    ClusterConfig cfg = smallConfig();
    cfg.workers = workers;
    ClusterRuntime runtime(cfg);
    std::ostringstream os;
    const CampaignResult result = runtime.run(jobs, os);
    EXPECT_EQ(result.jobs, 10);
    EXPECT_EQ(result.records_written, 10);
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST(Campaign, LossyCampaignBitIdenticalAcrossWorkerCounts) {
  // Fault dice are per transmission, so a lossy fabric parallelizes like a
  // lossless one: the requested workers are really used, and the records
  // (retransmission-delayed durations included) do not move.
  // Each record carries the NIC fault counters its job's ranks gained.
  const std::vector<JobSpec> jobs = synthWorkload(6, 5, 4);
  std::string baseline;
  for (int workers : {1, 3}) {
    ClusterConfig cfg = smallConfig();
    cfg.fabric.fault.rates.drop = 0.02;
    cfg.fabric.fault.rates.jitter = 500;
    cfg.fabric.fault.seed = 11;
    cfg.workers = workers;
    ClusterRuntime runtime(cfg);
    std::ostringstream os;
    const CampaignResult result = runtime.run(jobs, os);
    EXPECT_EQ(runtime.workersUsed(), workers);
    EXPECT_EQ(result.records_written, 6);
    std::istringstream is(os.str());
    std::vector<JobRecord> records;
    ASSERT_TRUE(Aggregator::loadAll(is, records));
    EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                            [](const JobRecord& r) {
                              return r.merged.faults.attempts > 0;
                            }));
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST(Campaign, ChannelCountersReachEveryRecordAtAnyWorkerCount) {
  // Campaign ranks build their own Mpi instead of going through the job
  // runner, and share NICs across jobs: each record must still carry the
  // per-channel counters its ranks' NICs gained during the job.
  std::vector<JobSpec> jobs = synthWorkload(6, 1, 4);
  for (JobSpec& j : jobs) j.nranks = std::max(j.nranks, 2);  // on the wire
  std::string baseline;
  for (int workers : {1, 2}) {
    ClusterConfig cfg = smallConfig();
    cfg.exclusive_nodes = false;
    ASSERT_TRUE(net::VciParams::parse("2", cfg.fabric.vci));
    cfg.workers = workers;
    ClusterRuntime runtime(cfg);
    std::ostringstream os;
    const CampaignResult result = runtime.run(jobs, os);
    EXPECT_EQ(result.records_written, 6);
    std::istringstream is(os.str());
    std::vector<JobRecord> records;
    ASSERT_TRUE(Aggregator::loadAll(is, records));
    ASSERT_EQ(records.size(), 6U);
    for (const JobRecord& rec : records) {
      ASSERT_EQ(rec.merged.vci.channels, 2) << "job " << rec.spec.id;
      std::int64_t posts = 0;
      for (const overlap::VciChannelClass& row : rec.merged.vci.rows) {
        posts += row.posts;
      }
      EXPECT_GT(posts, 0) << "job " << rec.spec.id;
    }
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST(Campaign, SpillPathMatchesInMemoryPath) {
  const std::vector<JobSpec> jobs = synthWorkload(12, 9, 4);
  ClusterConfig cfg = smallConfig();
  ClusterRuntime in_memory(cfg);
  std::ostringstream mono;
  (void)in_memory.run(jobs, mono);

  cfg.agg.spill_prefix = testing::TempDir() + "cluster_test_campaign";
  cfg.agg.shard_jobs = 3;
  ClusterRuntime spilling(cfg);
  std::ostringstream streamed;
  const CampaignResult result = spilling.run(jobs, streamed);
  EXPECT_EQ(mono.str(), streamed.str());
  // Concurrency (and thus open-job state) is bounded by the machine: with
  // 2x2 nodes and >=1-rank jobs, at most 4 jobs can hold allocations.
  EXPECT_LE(result.peak_open_jobs, 4);
}

TEST(Campaign, ContendedSharedNodeSlowdownIsNonNegative) {
  // Two identical bandwidth-bound jobs pinned onto one shared node: each
  // sees the other's traffic on its ports, so both run no faster than solo
  // — and with class-B all-to-all payloads, measurably slower.
  std::vector<JobSpec> jobs;
  for (std::int64_t id : {1, 2}) {
    JobSpec j = spec(id, 2, /*arrival=*/0, 0, /*estimate=*/3'000'000, "is");
    j.klass = 'B';
    jobs.push_back(j);
  }
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 4;
  cfg.exclusive_nodes = false;  // both jobs share node 0
  ClusterRuntime runtime(cfg);
  std::ostringstream os;
  const CampaignResult result = runtime.run(jobs, os);
  EXPECT_EQ(result.records_written, 2);
  EXPECT_EQ(result.baselines, 1);  // identical shape: one solo run, cached

  std::istringstream is(os.str());
  std::vector<JobRecord> records;
  ASSERT_TRUE(Aggregator::loadAll(is, records));
  ASSERT_EQ(records.size(), 2U);
  for (const JobRecord& rec : records) {
    EXPECT_GT(rec.solo_duration, 0);
    EXPECT_GE(rec.slowdown, 0.0) << "job " << rec.spec.id;
    EXPECT_GT(rec.contention_share, 0.0);
  }
  EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                          [](const JobRecord& r) { return r.slowdown > 0.05; }))
      << "co-located class-B all-to-alls should contend measurably";
}

TEST(Campaign, FifoAndBackfillDisagreeOnContendedQueue) {
  // Sanity that the policy knob reaches the runtime: a long high-priority
  // head with short jobs behind it backfills under Backfill (recorded in
  // the result) and does not under Fifo.
  std::vector<JobSpec> jobs;
  jobs.push_back(spec(1, 2, 0, 0, 4'000'000, "is"));     // node 0, long
  jobs.push_back(spec(2, 4, 1000, 0, 4'000'000, "is"));  // blocked head
  jobs.push_back(spec(3, 2, 2000, 0, 600'000, "ep"));  // node 1 backfill
  for (SchedPolicy policy : {SchedPolicy::Fifo, SchedPolicy::Backfill}) {
    ClusterConfig cfg = smallConfig();
    cfg.policy = policy;
    cfg.baselines = false;
    ClusterRuntime runtime(cfg);
    std::ostringstream os;
    const CampaignResult result = runtime.run(jobs, os);
    EXPECT_EQ(result.records_written, 3);
    if (policy == SchedPolicy::Backfill) {
      EXPECT_GE(result.backfills, 1);
      EXPECT_FALSE(runtime.reservations().empty());
    } else {
      EXPECT_EQ(result.backfills, 0);
    }
  }
}

TEST(Campaign, NoBaselinesZeroesInterferenceMetrics) {
  ClusterConfig cfg = smallConfig();
  cfg.baselines = false;
  ClusterRuntime runtime(cfg);
  std::ostringstream os;
  const CampaignResult result =
      runtime.run(synthWorkload(4, 11, 4), os);
  EXPECT_EQ(result.baselines, 0);
  std::istringstream is(os.str());
  std::vector<JobRecord> records;
  ASSERT_TRUE(Aggregator::loadAll(is, records));
  for (const JobRecord& rec : records) {
    EXPECT_EQ(rec.solo_duration, 0);
    EXPECT_EQ(rec.slowdown, 0.0);
    EXPECT_EQ(rec.overlap_delta_pct, 0.0);
  }
}

}  // namespace
}  // namespace ovp::cluster
