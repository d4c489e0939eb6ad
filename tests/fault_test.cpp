// Fault-injection layer tests: the FaultModel spec parser, the NIC
// reliability protocol (ack / timeout / backoff / retransmission /
// de-duplication / retry exhaustion), deterministic replay, per-transmission
// fault draws, parallel runs, and the pending-wake-token regression (a wake
// arriving mid-compute() while a retransmission reschedules the same work
// id).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "line_mutator.hpp"
#include "mpi/machine.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"

namespace ovp::net {
namespace {

using sim::Context;
using sim::Engine;

FabricParams zeroHostParams() {
  FabricParams p;
  p.wire_latency = 1000;
  p.ns_per_byte = 1.0;
  p.nic_setup = 0;
  p.post_overhead = 0;
  p.cq_poll_cost = 0;
  p.header_bytes = 0;
  return p;
}

Packet makePacket(Rank src, int channel, std::size_t n) {
  Packet p;
  p.src = src;
  p.channel = channel;
  p.payload.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.payload[i] = static_cast<std::byte>(i & 0xff);
  }
  return p;
}

Packet blockingRecv(Context& ctx, Nic& nic) {
  Packet pkt;
  while (!nic.pollRecv(pkt)) ctx.sleep();
  return pkt;
}

Completion blockingCompletion(Context& ctx, Nic& nic) {
  Completion c;
  while (!nic.pollCompletion(c)) ctx.sleep();
  return c;
}

// ------------------------------------------------------------ spec parser

TEST(FaultModelParse, FullSpec) {
  FaultModel m;
  ASSERT_TRUE(FaultModel::parse(
      "drop=0.05,corrupt=0.01,dup=0.02,reorder=0.03,jitter=2000,seed=7,"
      "retries=3,rto=9000",
      m));
  EXPECT_DOUBLE_EQ(m.rates.drop, 0.05);
  EXPECT_DOUBLE_EQ(m.rates.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(m.rates.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(m.rates.reorder, 0.03);
  EXPECT_EQ(m.rates.jitter, 2000);
  EXPECT_EQ(m.seed, 7u);
  EXPECT_EQ(m.max_retries, 3);
  EXPECT_EQ(m.rto_base, 9000);
  EXPECT_TRUE(m.enabled());
}

TEST(FaultModelParse, BareNumberIsDropRate) {
  FaultModel m;
  ASSERT_TRUE(FaultModel::parse("0.1", m));
  EXPECT_DOUBLE_EQ(m.rates.drop, 0.1);
  EXPECT_TRUE(m.enabled());
}

TEST(FaultModelParse, KeepsCallerDefaultsForUnmentionedKeys) {
  FaultModel m;
  m.seed = 42;
  m.max_retries = 5;
  ASSERT_TRUE(FaultModel::parse("drop=0.2", m));
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.max_retries, 5);
}

TEST(FaultModelParse, RejectsMalformedInput) {
  FaultModel m;
  const FaultModel before = m;
  EXPECT_FALSE(FaultModel::parse("drop=1.5", m));   // rate out of range
  EXPECT_FALSE(FaultModel::parse("drop=abc", m));   // not a number
  EXPECT_FALSE(FaultModel::parse("bogus=1", m));    // unknown key
  EXPECT_FALSE(FaultModel::parse("jitter=-5", m));  // negative duration
  EXPECT_FALSE(FaultModel::parse("retries=4294967296", m));  // past int
  EXPECT_DOUBLE_EQ(m.rates.drop, before.rates.drop);  // left untouched
}

// Seeded mutants of --ovprof-fault specs: parse never throws, and what it
// accepts has every rate in [0, 1].
TEST(FaultModelParse, MutatedLinesNeverCrash) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::string spec = fuzz::mutateSpec(
        "drop=0.05,corrupt=0.01,dup=0.02,reorder=0.03,jitter=2000,seed=7,"
        "retries=3,rto=9000",
        seed, ',', '=');
    FaultModel m;
    bool ok = false;
    ASSERT_NO_THROW(ok = FaultModel::parse(spec, m)) << spec;
    if (!ok) continue;
    ++accepted;
    for (const double rate : {m.rates.drop, m.rates.corrupt,
                              m.rates.duplicate, m.rates.reorder}) {
      EXPECT_GE(rate, 0.0) << spec;
      EXPECT_LE(rate, 1.0) << spec;
    }
    EXPECT_NO_THROW((void)m.describe()) << spec;
  }
  EXPECT_GT(accepted, 0);
}

TEST(FaultModelParse, DisabledByDefault) {
  FaultModel m;
  EXPECT_FALSE(m.enabled());
  ASSERT_TRUE(FaultModel::parse("drop=0,seed=9", m));
  EXPECT_FALSE(m.enabled());  // a seed alone changes nothing
}

// ------------------------------------------------- reliability protocol

TEST(Reliability, ForceReliableDeliversAndCompletesAtAck) {
  FabricParams p = zeroHostParams();
  p.fault.force_reliable = true;
  Engine eng;
  Fabric fabric(eng, p, 2);
  ASSERT_TRUE(fabric.faultEnabled());
  TimeNs completion_at = -1;
  TimeNs arrival_at = -1;
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 3, 500));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      completion_at = ctx.now();
      EXPECT_EQ(c.type, WorkType::Send);
      EXPECT_EQ(c.status, WorkStatus::Ok);
    } else {
      const Packet pkt = blockingRecv(ctx, fabric.nic(1));
      arrival_at = ctx.now();
      EXPECT_EQ(pkt.payload.size(), 500u);
    }
  });
  // Data: serialize(500) + latency(1000) = 1500.  Ack (header_bytes=0):
  // +1000.  Under the protocol the local completion means "delivered".
  EXPECT_EQ(arrival_at, 1500);
  EXPECT_EQ(completion_at, 2500);
  const overlap::FaultStats totals = fabric.faultTotals();
  EXPECT_EQ(totals.attempts, 1);
  EXPECT_EQ(totals.acks_sent, 1);
  EXPECT_EQ(totals.drops, 0);
  EXPECT_EQ(totals.retransmissions, 0);
}

TEST(Reliability, DeterministicDropTriggersRetransmission) {
  FabricParams p = zeroHostParams();
  p.fault.deterministic_drops = 1;
  Engine eng;
  Fabric fabric(eng, p, 2);
  bool delivered = false;
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 0, 100));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      EXPECT_EQ(c.status, WorkStatus::Ok);
    } else {
      (void)blockingRecv(ctx, fabric.nic(1));
      delivered = true;
    }
  });
  EXPECT_TRUE(delivered);
  const overlap::FaultStats totals = fabric.faultTotals();
  EXPECT_EQ(totals.attempts, 2);  // original + one retransmission
  EXPECT_EQ(totals.drops, 1);
  EXPECT_EQ(totals.timeouts, 1);
  EXPECT_EQ(totals.retransmissions, 1);
  EXPECT_EQ(totals.retry_exhausted, 0);
}

TEST(Reliability, AllDropsExhaustRetriesAndFailTheWorkRequest) {
  FabricParams p = zeroHostParams();
  p.fault.rates.drop = 1.0;
  p.fault.max_retries = 2;
  Engine eng;
  Fabric fabric(eng, p, 2);
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 0, 64));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      EXPECT_EQ(c.status, WorkStatus::RetryExhausted);
    }
    // Rank 1 never receives anything and simply returns.
  });
  const overlap::FaultStats totals = fabric.faultTotals();
  EXPECT_EQ(totals.attempts, 3);  // original + max_retries
  EXPECT_EQ(totals.drops, 3);
  EXPECT_EQ(totals.retry_exhausted, 1);
  EXPECT_EQ(fabric.nic(1).packetsDelivered(), 0);
}

TEST(Reliability, DuplicatesAreDeliveredOnceAndReAcked) {
  FabricParams p = zeroHostParams();
  p.fault.rates.duplicate = 1.0;
  Engine eng;
  Fabric fabric(eng, p, 2);
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 0, 32));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      EXPECT_EQ(c.status, WorkStatus::Ok);
    } else {
      (void)blockingRecv(ctx, fabric.nic(1));
    }
  });
  EXPECT_EQ(fabric.nic(1).packetsDelivered(), 1);
  const overlap::FaultStats totals = fabric.faultTotals();
  EXPECT_EQ(totals.duplicates, 1);
  EXPECT_EQ(totals.dup_discards, 1);
  EXPECT_EQ(totals.acks_sent, 2);  // duplicate is re-acked
}

TEST(Reliability, RdmaWriteSurvivesDropAndPlacesCorrectData) {
  FabricParams p = zeroHostParams();
  p.fault.deterministic_drops = 1;
  Engine eng;
  Fabric fabric(eng, p, 2);
  std::vector<std::uint8_t> src(2048);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> dst(2048, 0);
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postRdmaWrite(1, src.data(), dst.data(),
                                  static_cast<Bytes>(src.size()));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      EXPECT_EQ(c.type, WorkType::RdmaWrite);
      EXPECT_EQ(c.status, WorkStatus::Ok);
    }
  });
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
  EXPECT_EQ(fabric.faultTotals().retransmissions, 1);
}

TEST(Reliability, RdmaWriteNotifyArrivesWithRetransmittedData) {
  FabricParams p = zeroHostParams();
  p.fault.deterministic_drops = 1;
  Engine eng;
  Fabric fabric(eng, p, 2);
  std::vector<std::uint8_t> src(256, 0xab);
  std::vector<std::uint8_t> dst(256, 0);
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      const Packet fin = makePacket(0, 9, 16);
      fabric.nic(0).postRdmaWrite(1, src.data(), dst.data(),
                                  static_cast<Bytes>(src.size()), &fin);
      (void)blockingCompletion(ctx, fabric.nic(0));
    } else {
      const Packet fin = blockingRecv(ctx, fabric.nic(1));
      EXPECT_EQ(fin.channel, 9);
      // Same-QP ordering: when the notification is visible the data is in
      // place, even though the first transmission was dropped.
      EXPECT_EQ(dst[0], 0xab);
      EXPECT_EQ(dst[255], 0xab);
    }
  });
}

TEST(Reliability, RdmaReadSurvivesDropOnRequestLeg) {
  FabricParams p = zeroHostParams();
  p.fault.deterministic_drops = 1;
  Engine eng;
  Fabric fabric(eng, p, 2);
  std::vector<std::uint8_t> remote(1024);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    remote[i] = static_cast<std::uint8_t>(255 - (i & 0xff));
  }
  std::vector<std::uint8_t> local(1024, 0);
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postRdmaRead(1, local.data(), remote.data(),
                                 static_cast<Bytes>(remote.size()));
      const Completion c = blockingCompletion(ctx, fabric.nic(0));
      EXPECT_EQ(c.type, WorkType::RdmaRead);
      EXPECT_EQ(c.status, WorkStatus::Ok);
      EXPECT_EQ(std::memcmp(local.data(), remote.data(), local.size()), 0);
    }
  });
  EXPECT_EQ(fabric.faultTotals().retransmissions, 1);
}

TEST(Reliability, LegacyPathUntouchedWhenDisabled) {
  // With the fault model disabled the timing must be bit-identical to the
  // historic lossless model (send completion at last-byte-out).
  Engine eng;
  Fabric fabric(eng, zeroHostParams(), 2);
  ASSERT_FALSE(fabric.faultEnabled());
  TimeNs completion_at = -1;
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 0, 500));
      (void)blockingCompletion(ctx, fabric.nic(0));
      completion_at = ctx.now();
    } else {
      (void)blockingRecv(ctx, fabric.nic(1));
    }
  });
  EXPECT_EQ(completion_at, 500);
  const overlap::FaultStats totals = fabric.faultTotals();
  EXPECT_EQ(totals.attempts, 0);
  EXPECT_EQ(totals.acks_sent, 0);
}

// ------------------------------------------- deterministic replay (NIC)

// Runs a small all-pairs exchange on a lossy fabric and returns a
// timing+counter fingerprint of the run.
std::string lossyExchangeFingerprint(std::uint64_t seed) {
  FabricParams p = zeroHostParams();
  p.fault.rates.drop = 0.2;
  p.fault.rates.duplicate = 0.1;
  p.fault.rates.jitter = 700;
  p.fault.seed = seed;
  Engine eng;
  Fabric fabric(eng, p, 3);
  std::ostringstream os;
  std::vector<TimeNs> done(3, 0);
  eng.run(3, [&](Context& ctx) {
    const Rank me = ctx.rank();
    for (Rank peer = 0; peer < 3; ++peer) {
      if (peer == me) continue;
      fabric.nic(me).postSend(peer, makePacket(me, me, 64));
    }
    int completions = 0;
    int packets = 0;
    while (completions < 2 || packets < 2) {
      Completion c;
      Packet pkt;
      if (fabric.nic(me).pollCompletion(c)) {
        ++completions;
      } else if (fabric.nic(me).pollRecv(pkt)) {
        ++packets;
      } else {
        ctx.sleep();
      }
    }
    done[static_cast<std::size_t>(me)] = ctx.now();
  });
  const overlap::FaultStats t = fabric.faultTotals();
  os << eng.finishTime();
  for (const TimeNs d : done) os << ' ' << d;
  os << " a" << t.attempts << " d" << t.drops << " r" << t.retransmissions
     << " q" << t.dup_discards << " k" << t.acks_sent;
  return os.str();
}

TEST(Reliability, SameSeedReplaysBitIdentically) {
  const std::string a = lossyExchangeFingerprint(123);
  const std::string b = lossyExchangeFingerprint(123);
  EXPECT_EQ(a, b);
}

TEST(Reliability, DifferentSeedDiverges) {
  const std::string a = lossyExchangeFingerprint(123);
  const std::string b = lossyExchangeFingerprint(124);
  EXPECT_NE(a, b);
}

// ------------------------------------------------- local fault draws

// Rank 0 streams eight sends to rank 1 on a lossy fabric; ranks 2 and 3
// either idle or run their own lossy exchange.  Returns what the 0->1 pair
// saw: its fault counters and every completion and arrival time.
std::string zeroToOneOutcome(bool neighbours_busy) {
  FabricParams p = zeroHostParams();
  p.fault.rates.drop = 0.25;
  p.fault.rates.duplicate = 0.1;
  p.fault.rates.jitter = 700;
  p.fault.seed = 99;
  Engine eng;
  Fabric fabric(eng, p, 4);
  constexpr int kMessages = 8;
  std::vector<TimeNs> sent_done;
  std::vector<TimeNs> arrived;
  eng.run(4, [&](Context& ctx) {
    const Rank me = ctx.rank();
    Nic& nic = fabric.nic(me);
    if (me == 0) {
      for (int i = 0; i < kMessages; ++i) nic.postSend(1, makePacket(0, i, 64));
      for (int i = 0; i < kMessages; ++i) {
        EXPECT_EQ(blockingCompletion(ctx, nic).status, WorkStatus::Ok);
        sent_done.push_back(ctx.now());
      }
    } else if (me == 1) {
      for (int i = 0; i < kMessages; ++i) {
        (void)blockingRecv(ctx, nic);
        arrived.push_back(ctx.now());
      }
    } else if (neighbours_busy) {
      const Rank peer = me == 2 ? 3 : 2;
      for (int i = 0; i < kMessages; ++i) {
        nic.postSend(peer, makePacket(me, i, 64));
      }
      for (int i = 0; i < kMessages; ++i) {
        (void)blockingCompletion(ctx, nic);
        (void)blockingRecv(ctx, nic);
      }
    }
  });
  if (neighbours_busy) {
    EXPECT_GT(fabric.nic(2).faultCounters().attempts, kMessages);
  }
  const overlap::FaultStats& tx = fabric.nic(0).faultCounters();
  const overlap::FaultStats& rx = fabric.nic(1).faultCounters();
  EXPECT_GT(tx.drops, 0) << "the 0->1 stream must actually be lossy";
  std::ostringstream os;
  os << "a" << tx.attempts << " d" << tx.drops << " r" << tx.retransmissions
     << " t" << tx.timeouts << " q" << rx.dup_discards << " k" << rx.acks_sent
     << " x" << rx.acks_dropped << " |";
  for (const TimeNs t : sent_done) os << ' ' << t;
  os << " |";
  for (const TimeNs t : arrived) os << ' ' << t;
  return os.str();
}

TEST(Reliability, FaultDrawsIgnoreUnrelatedTraffic) {
  // Each die hashes its own transmission's identity, so an unrelated lossy
  // pair on other nodes cannot change which 0->1 attempts are lost.
  EXPECT_EQ(zeroToOneOutcome(false), zeroToOneOutcome(true));
}

// -------------------------------------- pending wake token (regression)

// A wake() that lands while the rank is busy inside compute() must be
// remembered and consumed by the rank's *next* sleep().  Here the wake is
// produced by a completion whose transmission was retransmitted behind the
// rank's back (deterministic drop), so the CQE lands mid-compute and there
// is exactly one CQE despite two transmissions of the same work id.
TEST(Reliability, WakeTokenMidComputeWithRetransmittedWork) {
  FabricParams p = zeroHostParams();
  p.fault.deterministic_drops = 1;
  Engine eng;
  Fabric fabric(eng, p, 2);
  TimeNs resumed_at = -1;
  TimeNs compute_end = -1;
  eng.run(2, [&](Context& ctx) {
    if (ctx.rank() == 0) {
      fabric.nic(0).postSend(1, makePacket(0, 0, 100));
      // Drop (attempt 1), timeout, retransmission and ack all happen well
      // inside this compute window: ack at ~2*(100+1000)+rto(4000)+1000.
      ctx.compute(msec(1));
      compute_end = ctx.now();
      ctx.sleep();  // must consume the pending token, not block
      resumed_at = ctx.now();
      Completion c;
      ASSERT_TRUE(fabric.nic(0).pollCompletion(c));
      EXPECT_EQ(c.status, WorkStatus::Ok);
      EXPECT_FALSE(fabric.nic(0).pollCompletion(c));  // exactly one CQE
    } else {
      (void)blockingRecv(ctx, fabric.nic(1));
    }
  });
  // The pending token makes sleep() return at the rank's own clock, not at
  // some later event.
  EXPECT_EQ(resumed_at, compute_end);
  EXPECT_EQ(fabric.faultTotals().retransmissions, 1);
}

// Engine-level pin of the same semantics, without the NIC: wake during
// Busy -> token; next sleep consumes it immediately.
TEST(EngineWakeToken, WakeDuringComputeConsumedByNextSleep) {
  Engine eng;
  TimeNs resumed_at = -1;
  eng.run(1, [&](Context& ctx) {
    eng.schedule(500, [&] { eng.wake(0); });
    ctx.compute(2000);  // wake fires mid-compute
    ctx.sleep();
    resumed_at = ctx.now();
  });
  EXPECT_EQ(resumed_at, 2000);
}

// --------------------------------------------- MPI on a lossy fabric

TEST(MpiFault, PingPongCompletesWithRetriesAndCleanData) {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.fabric.fault.rates.drop = 0.1;
  cfg.fabric.fault.rates.jitter = 1000;
  cfg.fabric.fault.seed = 5;
  cfg.mpi.verify = true;
  mpi::Machine machine(cfg);
  const Bytes msg = 64 * 1024;  // rendezvous-sized
  std::vector<std::uint8_t> sbuf(msg, 0x5a);
  std::vector<std::uint8_t> rbuf(msg, 0);
  machine.run([&](mpi::Mpi& mpi) {
    for (int i = 0; i < 10; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(sbuf.data(), msg, 1, 0);
        mpi.recv(rbuf.data(), msg, 1, 1);
      } else {
        mpi.recv(rbuf.data(), msg, 0, 0);
        mpi.send(sbuf.data(), msg, 0, 1);
      }
    }
  });
  EXPECT_EQ(rbuf[0], 0x5a);
  EXPECT_EQ(rbuf[msg - 1], 0x5a);
  EXPECT_TRUE(analysis::clean(machine.diagnostics()));
  // Per-rank fault counters land on the reports.
  ASSERT_EQ(machine.reports().size(), 2u);
  const overlap::FaultStats faults =
      overlap::mergeReports(machine.reports()).faults;
  EXPECT_GT(faults.attempts, 0);
  EXPECT_GT(faults.drops, 0);
  EXPECT_EQ(faults.retry_exhausted, 0);
}

TEST(MpiFault, ParallelRunMatchesSequential) {
  // A lossy job runs on the requested workers, and its reports (fault
  // counters included) match the sequential run exactly.
  std::string baseline;
  for (int workers : {1, 3}) {
    mpi::JobConfig cfg;
    cfg.nranks = 6;
    cfg.workers = workers;
    cfg.fabric.fault.rates.drop = 0.05;
    cfg.fabric.fault.rates.duplicate = 0.02;
    cfg.fabric.fault.rates.jitter = 1000;
    cfg.fabric.fault.seed = 7;
    mpi::Machine machine(cfg);
    const Bytes msg = 32 * 1024;  // rendezvous-sized
    machine.run([&](mpi::Mpi& mpi) {
      std::vector<std::uint8_t> sbuf(msg, 0x3c);
      std::vector<std::uint8_t> rbuf(msg, 0);
      const Rank next = (mpi.rank() + 1) % mpi.size();
      const Rank prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
      for (int i = 0; i < 4; ++i) {
        mpi::Request r = mpi.irecv(rbuf.data(), msg, prev, i);
        mpi.send(sbuf.data(), msg, next, i);
        mpi.wait(r);
        EXPECT_EQ(rbuf[msg - 1], 0x3c);
      }
    });
    EXPECT_EQ(machine.engine().workersUsed(), workers);
    EXPECT_GT(overlap::mergeReports(machine.reports()).faults.drops, 0);
    std::ostringstream os;
    os << machine.finishTime() << '\n';
    for (const overlap::Report& r : machine.reports()) r.save(os);
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST(MpiFault, RetryExhaustionSurfacesAsError) {
  mpi::JobConfig cfg;
  cfg.nranks = 2;
  cfg.fabric.fault.rates.drop = 1.0;
  cfg.fabric.fault.max_retries = 1;
  cfg.fabric.fault.rto_base = 2000;
  mpi::Machine machine(cfg);
  std::vector<std::uint8_t> buf(256, 1);
  EXPECT_THROW(machine.run([&](mpi::Mpi& mpi) {
                 if (mpi.rank() == 0) {
                   mpi.send(buf.data(), 256, 1, 0);
                 } else {
                   mpi.recv(buf.data(), 256, 0, 0);
                 }
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace ovp::net
