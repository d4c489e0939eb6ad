// Property-based (seeded random) tests for the overlap pipeline.
//
// 1. computeBounds: thousands of random BoundsInputs must satisfy the
//    paper's invariants (Sec. 2.2): 0 <= min <= max <= xfer_time, case 1
//    (same call) => min = max = 0, case 3 (one stamp) => [0, xfer_time],
//    and the case-2 formulas.
// 2. Monitor: random-but-valid hook interleavings, with the StreamVerifier
//    attached, must produce a clean stream and a report whose accumulators
//    satisfy the same bound invariants.  Each walk is also recorded into a
//    trace::Collector, and the offline window pass over that trace must
//    reproduce the report's totals and call/computation times exactly.
// 3. The whole stack under injected faults: random lossy fabrics must still
//    yield verifier-clean runs with sound per-rank reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/stream_verifier.hpp"
#include "mpi/machine.hpp"
#include "overlap/bounds.hpp"
#include "overlap/monitor.hpp"
#include "trace/collector.hpp"
#include "trace/timeline.hpp"
#include "util/rng.hpp"

namespace ovp::overlap {
namespace {

// ------------------------------------------------- computeBounds fuzzing

BoundsInput randomInput(util::Rng& rng) {
  BoundsInput in;
  in.begin_seen = rng.below(4) != 0;  // bias towards the common case
  in.end_seen = rng.below(4) != 0;
  in.same_call = rng.below(2) == 0;
  // Mix magnitudes: zeros, small values and multi-millisecond spans.
  const auto draw = [&rng]() -> DurationNs {
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return static_cast<DurationNs>(rng.below(100));
      case 2: return static_cast<DurationNs>(rng.below(100'000));
      default: return static_cast<DurationNs>(rng.below(10'000'000));
    }
  };
  in.computation = draw();
  in.noncomputation = draw();
  in.xfer_time = draw();
  return in;
}

TEST(BoundsProperty, InvariantsHoldOnThousandsOfRandomInputs) {
  util::Rng rng(20260805);
  constexpr int kCases = 5000;
  for (int i = 0; i < kCases; ++i) {
    const BoundsInput in = randomInput(rng);
    const Bounds b = computeBounds(in);

    // Universal invariant (bounds.hpp): 0 <= min <= max <= xfer_time.
    ASSERT_GE(b.min_overlap, 0) << "case " << i;
    ASSERT_LE(b.min_overlap, b.max_overlap) << "case " << i;
    ASSERT_LE(b.max_overlap, std::max<DurationNs>(0, in.xfer_time))
        << "case " << i;

    if (in.xfer_time <= 0) {
      ASSERT_EQ(b.min_overlap, 0);
      ASSERT_EQ(b.max_overlap, 0);
      continue;
    }
    if (!(in.begin_seen && in.end_seen)) {
      // Case 3: inconclusive.
      ASSERT_EQ(b.min_overlap, 0) << "case " << i;
      ASSERT_EQ(b.max_overlap, in.xfer_time) << "case " << i;
    } else if (in.same_call) {
      // Case 1: no computation was possible.
      ASSERT_EQ(b.min_overlap, 0) << "case " << i;
      ASSERT_EQ(b.max_overlap, 0) << "case " << i;
    } else {
      // Case 2 formulas, with the min <= max clamp.
      const DurationNs expect_max = std::min(in.computation, in.xfer_time);
      const DurationNs expect_min = std::min(
          expect_max,
          std::max<DurationNs>(0, in.xfer_time - in.noncomputation));
      ASSERT_EQ(b.max_overlap, expect_max) << "case " << i;
      ASSERT_EQ(b.min_overlap, expect_min) << "case " << i;
    }
  }
}

TEST(BoundsProperty, MonotoneInComputationAndAntitoneInNoncomputation) {
  // Secondary property on case 2: growing computation never shrinks the
  // bounds; growing noncomputation never grows the min bound.
  util::Rng rng(777);
  for (int i = 0; i < 1000; ++i) {
    BoundsInput in = randomInput(rng);
    in.begin_seen = in.end_seen = true;
    in.same_call = false;
    const Bounds base = computeBounds(in);

    BoundsInput more_comp = in;
    more_comp.computation += static_cast<DurationNs>(rng.below(100'000));
    const Bounds b1 = computeBounds(more_comp);
    ASSERT_GE(b1.max_overlap, base.max_overlap);
    ASSERT_GE(b1.min_overlap, base.min_overlap);

    BoundsInput more_lib = in;
    more_lib.noncomputation += static_cast<DurationNs>(rng.below(100'000));
    const Bounds b2 = computeBounds(more_lib);
    ASSERT_LE(b2.min_overlap, base.min_overlap);
    ASSERT_EQ(b2.max_overlap, base.max_overlap);
  }
}

// ----------------------------------------- Monitor random interleavings

void checkAccum(const OverlapAccum& a, const std::string& what) {
  ASSERT_GE(a.min_overlapped, 0) << what;
  ASSERT_LE(a.min_overlapped, a.max_overlapped) << what;
  ASSERT_LE(a.max_overlapped, a.data_transfer_time) << what;
  ASSERT_GE(a.transfers, 0) << what;
}

void checkReport(const Report& r, const std::string& what) {
  checkAccum(r.whole.total, what + " whole");
  for (std::size_t c = 0; c < r.whole.by_class.size(); ++c) {
    checkAccum(r.whole.by_class[c], what + " class" + std::to_string(c));
  }
  for (const SectionReport& s : r.sections) {
    checkAccum(s.total, what + " section " + s.name);
  }
  ASSERT_EQ(r.case_same_call + r.case_split_call + r.case_inconclusive,
            r.whole.total.transfers)
      << what;
}

// Drives one Monitor through a random-but-API-valid hook sequence and
// checks the verifier stays clean, the report invariants hold, and the
// offline window pass over the recorded trace agrees with the report.
void runMonitorWalk(std::uint64_t seed) {
  util::Rng rng(seed);
  MonitorConfig cfg;
  cfg.queue_capacity = 64 + rng.below(64);  // force mid-run drains
  for (Bytes s = 16; s <= 1 << 20; s *= 2) {
    cfg.table.add(s, 1000 + static_cast<DurationNs>(s) / 4);
  }
  Monitor mon(cfg, /*rank=*/0);
  analysis::StreamVerifier verifier(0);
  trace::CollectorConfig tcfg;
  tcfg.enabled = true;
  tcfg.ring_capacity = 1u << 12;  // a walk logs well under 1000 events
  trace::Collector tc(tcfg, /*nranks=*/1);
  tc.setTable(cfg.table);
  mon.setEventObserver([&](const Event& e) {
    verifier.consume(e);
    tc.onMonitorEvent(0, e);
  });

  TimeNs t = 0;
  const auto tick = [&] { t += 1 + static_cast<DurationNs>(rng.below(5000)); };
  std::vector<TransferId> open;
  bool in_call = false;
  int sections = 0;
  const int steps = 200 + static_cast<int>(rng.below(200));
  for (int i = 0; i < steps; ++i) {
    tick();
    switch (rng.below(8)) {
      case 0:
        if (!in_call) {
          (void)mon.callEnter(t);
          in_call = true;
        }
        break;
      case 1:
        if (in_call) {
          (void)mon.callExit(t);
          in_call = false;
        }
        break;
      case 2: {
        const Bytes size = 16u << rng.below(12);
        const auto [id, cost] = mon.xferBegin(t, size);
        (void)cost;
        if (id != kInvalidTransfer) open.push_back(id);
        break;
      }
      case 3:
        if (!open.empty()) {
          const std::size_t at = rng.below(open.size());
          (void)mon.xferEnd(t, open[at]);
          open.erase(open.begin() +
                     static_cast<std::ptrdiff_t>(at));
        }
        break;
      case 4:
        (void)mon.xferEndUnmatched(t, 16u << rng.below(12));  // case 3
        break;
      case 5:
        if (sections < 3 && rng.below(2) == 0) {
          (void)mon.sectionBegin(
              t, std::string("s").append(std::to_string(sections)));
          ++sections;
        } else if (sections > 0) {
          (void)mon.sectionEnd(t);
          --sections;
        }
        break;
      case 6:
        // Toggling while transfers are open or inside a call would change
        // the stream shape legitimately but keep this walk simple: only
        // toggle at a quiet point.
        if (!in_call && open.empty() && mon.enabled()) {
          (void)mon.setEnabled(t, false);
          tick();
          (void)mon.setEnabled(t, true);
        }
        break;
      default: {
        // Plain computation gap.
        tick();
        break;
      }
    }
  }
  // Close everything down in a valid order.
  tick();
  for (const TransferId id : open) (void)mon.xferEnd(t, id);
  if (in_call) (void)mon.callExit(t);
  while (sections > 0) {
    (void)mon.sectionEnd(t);
    --sections;
  }
  tick();
  const Report& r = mon.report(t);
  verifier.finish(mon.eventsLogged());
  EXPECT_TRUE(verifier.clean()) << "seed " << seed;
  checkReport(r, "seed " + std::to_string(seed));

  tc.setEndTime(0, t);
  const trace::RankWindows rw = trace::analyzeWindows(tc, 0, msec(1));
  ASSERT_EQ(rw.dropped, 0) << "seed " << seed;
  EXPECT_EQ(rw.total.transfers, r.whole.total.transfers) << "seed " << seed;
  EXPECT_EQ(rw.total.bytes, r.whole.total.bytes) << "seed " << seed;
  EXPECT_EQ(rw.total.data_transfer_time, r.whole.total.data_transfer_time)
      << "seed " << seed;
  EXPECT_EQ(rw.total.min_overlapped, r.whole.total.min_overlapped)
      << "seed " << seed;
  EXPECT_EQ(rw.total.max_overlapped, r.whole.total.max_overlapped)
      << "seed " << seed;
  EXPECT_EQ(rw.comm_total, r.whole.communication_call_time) << "seed " << seed;
  EXPECT_EQ(rw.comp_total, r.whole.computation_time) << "seed " << seed;
}

TEST(MonitorProperty, RandomWalksStayCleanAndSound) {
  // 40 walks x ~300 steps: thousands of randomized events through the
  // queue/drain/processor pipeline.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) runMonitorWalk(seed);
}

// ------------------------------------- full stack under injected faults

TEST(FaultProperty, LossyFabricRunsStayCleanAndSound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed * 97);
    mpi::JobConfig cfg;
    cfg.nranks = 2;
    cfg.fabric.fault.seed = seed;
    cfg.fabric.fault.rates.drop = 0.02 + 0.01 * static_cast<double>(seed);
    cfg.fabric.fault.rates.duplicate = 0.02;
    cfg.fabric.fault.rates.jitter = 500 * static_cast<DurationNs>(seed);
    cfg.mpi.verify = true;
    mpi::Machine machine(cfg);
    const Bytes msg = 32 * 1024;
    std::vector<std::uint8_t> sbuf(msg, 7);
    std::vector<std::uint8_t> rbuf(msg, 0);
    machine.run([&](mpi::Mpi& mpi) {
      for (int i = 0; i < 8; ++i) {
        if (mpi.rank() == 0) {
          mpi::Request req = mpi.isend(sbuf.data(), msg, 1, 0);
          mpi.compute(50'000);
          mpi.wait(req);
          mpi.recv(rbuf.data(), msg, 1, 1);
        } else {
          mpi::Request req = mpi.irecv(rbuf.data(), msg, 0, 0);
          mpi.compute(30'000);
          mpi.wait(req);
          mpi.send(sbuf.data(), msg, 0, 1);
        }
      }
    });
    EXPECT_TRUE(analysis::clean(machine.diagnostics())) << "seed " << seed;
    EXPECT_EQ(rbuf[0], 7) << "seed " << seed;
    for (const Report& r : machine.reports()) {
      checkReport(r, "fault seed " + std::to_string(seed));
    }
    const overlap::FaultStats faults =
        overlap::mergeReports(machine.reports()).faults;
    EXPECT_GT(faults.attempts, 0);
    EXPECT_EQ(faults.retry_exhausted, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ovp::overlap
