// Tests for the multi-VCI NIC: channel-spec parsing, assignment policies,
// the shared-rail arbitrator (byte conservation, incast accounting, rail
// scaling), per-channel report plumbing (save/load/merge), and the two
// determinism contracts — legacy timing invariance at rails=1 and worker-
// count independence of the channelized fabric.
//
// The incast golden pins rank 0's full per-channel report; regenerate after
// an intentional change with:
//   OVPROF_REGOLD=1 ./build/tests/vci_test
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "line_mutator.hpp"
#include "mpi/machine.hpp"
#include "net/nic.hpp"
#include "net/vci.hpp"
#include "sim/engine.hpp"

namespace ovp {
namespace {

using net::Fabric;
using net::FabricParams;
using net::Nic;
using net::Packet;
using net::VciParams;
using net::VciPolicy;
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

Packet makePacket(Rank src, std::size_t n) {
  Packet p;
  p.src = src;
  p.payload.resize(n);
  return p;
}

Packet blockingRecv(Context& ctx, Nic& nic) {
  Packet pkt;
  while (!nic.pollRecv(pkt)) ctx.sleep();
  return pkt;
}

// ---------------------------------------------------------------- parsing

TEST(VciParams, ParseChannelCountOnly) {
  VciParams p;
  ASSERT_TRUE(VciParams::parse("2", p));
  EXPECT_EQ(p.channels, 2);
  EXPECT_EQ(p.policy, VciPolicy::TagHash);
  EXPECT_TRUE(p.enabled());
  // A default size-class split is seeded so reports are size-resolved.
  ASSERT_EQ(p.classes.bounds().size(), 1u);
  EXPECT_EQ(p.classes.count(), 2);
}

TEST(VciParams, ParseEveryPolicy) {
  const struct {
    const char* spec;
    VciPolicy policy;
  } cases[] = {
      {"4,tag-hash", VciPolicy::TagHash},
      {"4,round-robin", VciPolicy::RoundRobin},
      {"4,per-peer", VciPolicy::PerPeer},
      {"4,explicit", VciPolicy::Explicit},
  };
  for (const auto& c : cases) {
    VciParams p;
    ASSERT_TRUE(VciParams::parse(c.spec, p)) << c.spec;
    EXPECT_EQ(p.channels, 4) << c.spec;
    EXPECT_EQ(p.policy, c.policy) << c.spec;
    EXPECT_STREQ(VciParams::policyName(p.policy),
                 std::string(c.spec).substr(2).c_str());
  }
}

TEST(VciParams, ParseRejectsMalformedSpecs) {
  for (const char* bad : {"", "0", "-1", "65", "abc", "2,frob", "2,", ",2"}) {
    VciParams p;
    EXPECT_FALSE(VciParams::parse(bad, p)) << "accepted: " << bad;
  }
}

// Seeded mutants of --ovprof-vci specs: parse never throws, and what it
// accepts names 1 to 64 channels.
TEST(VciParams, MutatedLinesNeverCrash) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    for (const char* good :
         {"2", "4,round-robin", "8,per-peer", "64,explicit"}) {
      const std::string spec = fuzz::mutateSpec(good, seed, ',', ':');
      VciParams p;
      bool ok = false;
      ASSERT_NO_THROW(ok = VciParams::parse(spec, p)) << spec;
      if (!ok) continue;
      ++accepted;
      EXPECT_GE(p.channels, 1) << spec;
      EXPECT_LE(p.channels, 64) << spec;
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(VciParams, SizeClassMappingAndLabels) {
  VciParams p;
  ASSERT_TRUE(VciParams::parse("2", p));  // bound at 16 KiB
  EXPECT_EQ(p.classes.classOf(0), 0);
  EXPECT_EQ(p.classes.classOf(16 * 1024 - 1), 0);
  EXPECT_EQ(p.classes.classOf(16 * 1024), 1);
}

TEST(VciParams, DisabledDefaults) {
  const VciParams p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.channelCount(), 1);
  EXPECT_EQ(p.railCount(), 1);
}

// --------------------------------------------------------------- policies

TEST(VciPolicyTest, TagHashIsStableAndPinsStreams) {
  Engine eng;
  FabricParams fp = zeroHostParams();
  ASSERT_TRUE(VciParams::parse("4", fp.vci));
  Fabric fabric(eng, fp, 4);
  Nic& nic = fabric.nic(0);
  for (const int tag : {0, 1, 2, 7, 100}) {
    const int first = nic.vciFor(2, tag);
    ASSERT_GE(first, 0);
    ASSERT_LT(first, 4);
    // Same (peer, tag) stream must stay on one channel: MPI non-overtaking
    // rides on this.
    for (int i = 0; i < 8; ++i) EXPECT_EQ(nic.vciFor(2, tag), first);
  }
  // The hash must actually spread streams (not collapse to one channel).
  std::vector<bool> used(4, false);
  for (Rank dst = 0; dst < 32; ++dst) {
    for (int tag = 0; tag < 8; ++tag) used[nic.vciFor(dst, tag)] = true;
  }
  EXPECT_EQ(std::count(used.begin(), used.end(), true), 4);
}

TEST(VciPolicyTest, RoundRobinCyclesThroughChannels) {
  Engine eng;
  FabricParams fp = zeroHostParams();
  ASSERT_TRUE(VciParams::parse("3,round-robin", fp.vci));
  Fabric fabric(eng, fp, 2);
  Nic& nic = fabric.nic(0);
  std::vector<int> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(nic.vciFor(1, 0));
  EXPECT_EQ(seq, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(VciPolicyTest, PerPeerPinsByDestination) {
  Engine eng;
  FabricParams fp = zeroHostParams();
  ASSERT_TRUE(VciParams::parse("4,per-peer", fp.vci));
  Fabric fabric(eng, fp, 8);
  Nic& nic = fabric.nic(0);
  for (Rank dst = 0; dst < 8; ++dst) {
    EXPECT_EQ(nic.vciFor(dst, 0), static_cast<int>(dst) % 4);
    EXPECT_EQ(nic.vciFor(dst, 5), static_cast<int>(dst) % 4);  // tag ignored
  }
}

// ----------------------------------------------------- arbitrator physics

/// Randomized traffic plan shared by the conservation test: every rank
/// sends `kSends` packets to seeded pseudo-random peers at pseudo-random
/// sizes, some with an explicit channel request.  The plan is computed
/// up front so receivers know exactly how many packets to drain.
struct TrafficPlan {
  struct Post {
    Rank dst;
    Bytes size;
    int vci;  // -1 = let the policy choose
  };
  std::vector<std::vector<Post>> by_rank;
  std::vector<int> expected_recvs;
  std::int64_t total_posts = 0;
  std::vector<std::int64_t> bytes_posted;

  static TrafficPlan make(int nranks, int sends_per_rank, std::uint64_t seed) {
    TrafficPlan plan;
    plan.by_rank.resize(nranks);
    plan.expected_recvs.assign(nranks, 0);
    plan.bytes_posted.assign(nranks, 0);
    std::uint64_t s = seed;
    const auto next = [&s]() {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    for (int r = 0; r < nranks; ++r) {
      for (int i = 0; i < sends_per_rank; ++i) {
        Post p;
        p.dst = static_cast<Rank>((r + 1 + next() % (nranks - 1)) % nranks);
        p.size = 64 + next() % (48 * 1024);  // straddles the 16K class bound
        p.vci = (next() % 3 == 0) ? static_cast<int>(next() % 7) : -1;
        plan.expected_recvs[p.dst]++;
        plan.bytes_posted[r] += static_cast<std::int64_t>(p.size);
        plan.by_rank[r].push_back(p);
        ++plan.total_posts;
      }
    }
    return plan;
  }
};

/// Runs the plan on a channelized fabric and returns a flat serialization
/// of every NIC's per-channel counters (for determinism comparisons).
std::string runPlan(const TrafficPlan& plan, int nranks,
                    const VciParams& vci, int ranks_per_node) {
  Engine eng;
  FabricParams fp = zeroHostParams();
  fp.vci = vci;
  fp.ranks_per_node = ranks_per_node;
  Fabric fabric(eng, fp, nranks);
  eng.run(nranks, [&](Context& ctx) {
    const Rank me = ctx.rank();
    for (const TrafficPlan::Post& p : plan.by_rank[me]) {
      fabric.nic(me).postSend(p.dst, makePacket(me, p.size), p.vci);
    }
    for (int got = 0; got < plan.expected_recvs[me]; ++got) {
      (void)blockingRecv(ctx, fabric.nic(me));
    }
  });
  // Conservation: per-channel bytes must sum to the NIC's total egress,
  // and every post must appear exactly once on some (channel, class) cell.
  std::int64_t posts = 0, deliveries = 0;
  std::ostringstream os;
  for (Rank r = 0; r < nranks; ++r) {
    const Nic& nic = fabric.nic(r);
    std::int64_t rank_bytes = 0;
    for (const overlap::VciChannelClass& c : nic.vciCounters()) {
      rank_bytes += c.bytes;
      posts += c.posts;
      deliveries += c.deliveries;
      os << c.posts << ' ' << c.deliveries << ' ' << c.bytes << ' ' << c.gap
         << ' ' << c.link_wait << ' ' << c.incast_wait << '\n';
    }
    EXPECT_EQ(rank_bytes, static_cast<std::int64_t>(nic.bytesSent()))
        << "channel bytes leak on rank " << r;
    EXPECT_EQ(rank_bytes, plan.bytes_posted[r]) << "rank " << r;
  }
  EXPECT_EQ(posts, plan.total_posts);
  EXPECT_EQ(deliveries, plan.total_posts);
  os << "finish " << eng.finishTime() << '\n';
  return os.str();
}

TEST(VciArbitrator, RandomTrafficConservesBytesAcrossChannels) {
  const int nranks = 8;
  const TrafficPlan plan = TrafficPlan::make(nranks, 40, 0xA5F00D);
  VciParams vci;
  ASSERT_TRUE(VciParams::parse("4", vci));
  vci.rails = 2;
  const std::string first = runPlan(plan, nranks, vci, 2);
  // Determinism: an identical rerun reproduces every per-channel counter
  // and the virtual makespan bit-for-bit.
  EXPECT_EQ(first, runPlan(plan, nranks, vci, 2));
}

TEST(VciArbitrator, EveryPolicyConservesBytes) {
  const int nranks = 6;
  const TrafficPlan plan = TrafficPlan::make(nranks, 25, 0xBEEF);
  for (const char* spec :
       {"1", "2,round-robin", "3,per-peer", "4,explicit"}) {
    VciParams vci;
    ASSERT_TRUE(VciParams::parse(spec, vci));
    (void)runPlan(plan, nranks, vci, 3);  // EXPECTs inside
  }
}

TEST(VciArbitrator, ExtraRailsFinishNoLaterThanOneRail) {
  // Two parallel streams on distinct channels: with one rail the second
  // serializes behind the first; with two rails they ride side by side.
  const auto lastArrival = [](int rails) {
    Engine eng;
    FabricParams fp = zeroHostParams();
    EXPECT_TRUE(VciParams::parse("2,explicit", fp.vci));
    fp.vci.rails = rails;
    Fabric fabric(eng, fp, 2);
    TimeNs last = 0;
    eng.run(2, [&](Context& ctx) {
      if (ctx.rank() == 0) {
        fabric.nic(0).postSend(1, makePacket(0, 2000), 0);
        fabric.nic(0).postSend(1, makePacket(0, 2000), 1);
      } else {
        (void)blockingRecv(ctx, fabric.nic(1));
        (void)blockingRecv(ctx, fabric.nic(1));
        last = ctx.now();
      }
    });
    return last;
  };
  const TimeNs one_rail = lastArrival(1);
  const TimeNs two_rails = lastArrival(2);
  EXPECT_EQ(one_rail, 1000 + 2000 + 2000);  // second stream serialized
  EXPECT_EQ(two_rails, 1000 + 2000);        // streams in parallel
}

// ------------------------------------------------- incast characterization

/// N senders blast one receiver (every rank its own node), versus a single
/// uncontended sender moving the same per-sender volume.  The arbitrated
/// rx rail must attribute the pile-up as incast wait — and only then.
overlap::Report incastReport(int senders) {
  mpi::JobConfig cfg;
  cfg.nranks = senders + 1;
  EXPECT_TRUE(VciParams::parse("2", cfg.fabric.vci));
  mpi::Machine machine(cfg);
  std::vector<std::uint8_t> buf(32 * 1024, 1);
  machine.run([&](mpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int s = 1; s <= senders; ++s) {
        mpi.recv(buf.data(), buf.size(), s, 3);
      }
    } else {
      mpi.send(buf.data(), buf.size(), 0, 3);
    }
  });
  return machine.reports().at(0);
}

std::int64_t totalIncastWait(const overlap::Report& r) {
  std::int64_t w = 0;
  for (const overlap::VciChannelClass& row : r.vci.rows) w += row.incast_wait;
  return w;
}

TEST(VciIncast, ContendedReceiverAccruesIncastWait) {
  const overlap::Report contended = incastReport(4);
  const overlap::Report control = incastReport(1);
  EXPECT_EQ(totalIncastWait(control), 0)
      << "a single uncontended stream must not be charged incast time";
  EXPECT_GT(totalIncastWait(contended), 0);
  EXPECT_GT(totalIncastWait(contended), totalIncastWait(control));
}

TEST(VciIncast, GoldenPerChannelReport) {
  const overlap::Report r = incastReport(4);
  std::ostringstream os;
  os << "==== write rank " << r.rank << " ====\n";
  r.write(os);
  os << "==== save rank " << r.rank << " ====\n";
  r.save(os);
  compareOrRegold("vci_incast.txt", os.str());
}

// ------------------------------------------------ report section plumbing

overlap::VciStats sampleStats() {
  overlap::VciStats s;
  s.channels = 2;
  s.classes = overlap::SizeClasses::shortLong(16384);
  s.rows.resize(4);  // 2 channels x 2 classes
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    overlap::VciChannelClass& row = s.rows[i];
    const auto k = static_cast<std::int64_t>(i + 1);
    row.posts = k;
    row.deliveries = 2 * k;
    row.bytes = 100 * k;
    row.o_send = 11 * k;
    row.o_recv = 13 * k;
    row.gap = 17 * k;
    row.link_wait = 19 * k;
    row.incast_wait = 23 * k;
  }
  return s;
}

TEST(VciReport, SaveLoadRoundTripIsLossless) {
  // A real instrumented run, so the vci block round-trips inside a full
  // report (header, optional blocks, classes, sections) byte-for-byte.
  const overlap::Report r = incastReport(3);
  ASSERT_TRUE(r.vci.any());
  std::ostringstream first;
  r.save(first);
  overlap::Report reloaded;
  std::istringstream is(first.str());
  ASSERT_TRUE(reloaded.load(is));
  EXPECT_EQ(reloaded.vci.channels, r.vci.channels);
  EXPECT_EQ(reloaded.vci.classes, r.vci.classes);
  ASSERT_EQ(reloaded.vci.rows.size(), r.vci.rows.size());
  for (std::size_t i = 0; i < r.vci.rows.size(); ++i) {
    EXPECT_EQ(reloaded.vci.rows[i].posts, r.vci.rows[i].posts) << i;
    EXPECT_EQ(reloaded.vci.rows[i].incast_wait, r.vci.rows[i].incast_wait)
        << i;
  }
  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(VciReport, LoadRejectsBoundsOutOfOrder) {
  // Rows are filed by class index, so a `vci` line whose bounds are not
  // ascending would put every row under another class.
  overlap::Report r = incastReport(3);
  r.vci.classes = overlap::SizeClasses::fromBounds({256, 8192});
  r.vci.rows.resize(static_cast<std::size_t>(r.vci.channels) * 3);
  std::ostringstream saved;
  r.save(saved);
  const std::string good = saved.str();
  const std::string head = "vci " + std::to_string(r.vci.channels) + " 2 ";
  const std::size_t at = good.find(head + "256 8192\n");
  ASSERT_NE(at, std::string::npos) << good;
  overlap::Report loaded;
  std::istringstream ok(good);
  ASSERT_TRUE(loaded.load(ok));
  EXPECT_EQ(loaded.vci.classes.bounds(), (std::vector<Bytes>{256, 8192}));
  for (const char* bounds : {"8192 256\n", "256 256\n"}) {
    std::string bad = good;
    bad.replace(at, head.size() + 9, head + bounds);
    std::istringstream is(bad);
    EXPECT_FALSE(loaded.load(is)) << bounds;
  }
}

TEST(VciReport, MergeAddsMatchingShapes) {
  overlap::VciStats a = sampleStats();
  a += sampleStats();
  EXPECT_EQ(a.at(0, 0).posts, 2);
  EXPECT_EQ(a.at(1, 1).bytes, 800);
  EXPECT_EQ(a.at(1, 0).link_wait, 2 * 19 * 3);
}

TEST(VciReport, MergeAdoptsIntoEmptyAndKeepsLeftOnMismatch) {
  overlap::VciStats empty;
  empty += sampleStats();
  EXPECT_EQ(empty.channels, 2);
  EXPECT_EQ(empty.at(0, 1).posts, 2);

  overlap::VciStats other = sampleStats();
  other.channels = 4;
  other.rows.resize(8);
  overlap::VciStats left = sampleStats();
  left += other;  // incompatible shape: left side wins, no partial adds
  EXPECT_EQ(left.channels, 2);
  EXPECT_EQ(left.at(0, 0).posts, 1);
}

// ------------------------------------------------- determinism contracts

/// The halo workload from sim_bench, shrunk: enough traffic to exercise
/// every protocol path but quick under sanitizers.
void haloWorkload(mpi::Mpi& mpi) {
  const int nranks = mpi.size();
  const int left = (mpi.rank() + nranks - 1) % nranks;
  const int right = (mpi.rank() + 1) % nranks;
  std::vector<double> snd(512), rcv_l(512), rcv_r(512);
  double sum = 0.0;
  for (int it = 0; it < 10; ++it) {
    mpi::Request rl = mpi.irecvT(rcv_l.data(), 512, left, 1);
    mpi::Request rr = mpi.irecvT(rcv_r.data(), 512, right, 2);
    mpi::Request sl = mpi.isendT(snd.data(), 512, left, 2);
    mpi::Request sr = mpi.isendT(snd.data(), 512, right, 1);
    mpi.compute(512);
    mpi.wait(rl);
    mpi.wait(rr);
    mpi.wait(sl);
    mpi.wait(sr);
    double total = 0.0;
    mpi.allreduce(&sum, &total, 1, mpi::Op::Sum);
    sum = total;
  }
}

struct HaloRun {
  TimeNs finish = 0;
  std::string reports;  // every rank's exact save format
};

HaloRun runHalo(const VciParams& vci, int workers) {
  mpi::JobConfig cfg;
  cfg.nranks = 8;
  cfg.workers = workers;
  cfg.fabric.vci = vci;
  cfg.fabric.ranks_per_node = 2;
  mpi::Machine machine(cfg);
  machine.run(haloWorkload);
  HaloRun out;
  out.finish = machine.finishTime();
  std::ostringstream os;
  for (const overlap::Report& r : machine.reports()) r.save(os);
  out.reports = os.str();
  return out;
}

TEST(VciDeterminism, RailsOneIsTimingIdenticalToLegacyFabric) {
  // The central compatibility claim: on a single rail the channelized
  // arbitrator collapses to the historical NodePort timing for ANY channel
  // count — enabling --ovprof-vci only adds report content.
  const HaloRun legacy = runHalo(VciParams{}, 1);
  for (const char* spec : {"1", "2", "4", "4,round-robin"}) {
    VciParams vci;
    ASSERT_TRUE(VciParams::parse(spec, vci));
    EXPECT_EQ(runHalo(vci, 1).finish, legacy.finish) << spec;
  }
}

TEST(VciDeterminism, ChannelizedReportsBitIdenticalAcrossWorkerCounts) {
  VciParams vci;
  ASSERT_TRUE(VciParams::parse("4", vci));
  vci.rails = 2;
  const HaloRun seq = runHalo(vci, 1);
  EXPECT_FALSE(seq.reports.empty());
  for (const int workers : {2, 4}) {
    const HaloRun par = runHalo(vci, workers);
    EXPECT_EQ(par.finish, seq.finish) << "workers=" << workers;
    EXPECT_EQ(par.reports, seq.reports) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace ovp
