// Tests for the simulated ARMCI one-sided library: data movement semantics,
// non-blocking completion, strided transfers, and the overlap behaviour the
// paper reports for ARMCI (Sec. 4.4): non-blocking operations reach ~99%
// maximum overlap because the NIC owns the transfer once posted.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "armci/armci.hpp"

namespace ovp::armci {
namespace {

ArmciJobConfig baseConfig(int nranks) {
  ArmciJobConfig cfg;
  cfg.nranks = nranks;
  return cfg;
}

TEST(Armci, BlockingPutDeliversData) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> src(4096), dst(4096, 0);
  std::iota(src.begin(), src.end(), 0);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      a.put(src.data(), dst.data(), 4096, 1);
    } else {
      a.compute(msec(10));  // passive target
    }
    a.barrier();
    if (a.rank() == 1) {
      EXPECT_EQ(dst[100], src[100]);
    }
  });
  EXPECT_EQ(src, dst);
}

TEST(Armci, BlockingGetFetchesData) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> remote(2048, 0xCD), local(2048, 0);
  m.run([&](Armci& a) {
    if (a.rank() == 1) {
      a.get(remote.data(), local.data(), 2048, 0);
      EXPECT_EQ(local[0], 0xCD);
      EXPECT_EQ(local[2047], 0xCD);
    } else {
      a.compute(msec(10));
    }
  });
}

TEST(Armci, NonBlockingPutCompletesViaWait) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> src(100000, 0x5A), dst(100000, 0);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      NbHandle h = a.nbPut(src.data(), dst.data(), 100000, 1);
      EXPECT_TRUE(h.valid());
      a.compute(msec(1));
      a.wait(h);
      EXPECT_FALSE(h.valid());
      a.fence(1);
    } else {
      a.compute(msec(5));
    }
    a.barrier();
  });
  EXPECT_EQ(dst[99999], 0x5A);
}

TEST(Armci, NonBlockingGetOverlapsComputation) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> remote(1 << 20, 7), local(1 << 20, 0);
  m.run([&](Armci& a) {
    if (a.rank() == 1) {
      NbHandle h = a.nbGet(remote.data(), local.data(), 1 << 20, 0);
      a.compute(msec(3));  // transfer takes ~1 ms; plenty of compute
      const TimeNs t0 = a.now();
      a.wait(h);
      // Fully overlapped: the wait is nearly instantaneous.
      EXPECT_LT(a.now() - t0, usec(50));
      EXPECT_EQ(local[12345], 7);
    } else {
      a.compute(msec(10));
    }
  });
  const auto& rep = m.reports()[1];
  EXPECT_GT(rep.whole.total.maxPct(), 95.0);
  EXPECT_GT(rep.whole.total.minPct(), 80.0);
}

TEST(Armci, BlockingOpsHaveZeroOverlap) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> remote(1 << 20), local(1 << 20);
  m.run([&](Armci& a) {
    if (a.rank() == 1) {
      for (int i = 0; i < 3; ++i) {
        a.get(remote.data(), local.data(), 1 << 20, 0);
        a.compute(msec(2));  // computation NOT between begin and end
      }
    } else {
      a.compute(msec(20));
    }
  });
  const auto& rep = m.reports()[1];
  EXPECT_DOUBLE_EQ(rep.whole.total.maxPct(), 0.0);  // all case 1
  EXPECT_EQ(rep.case_same_call, 3);
}

TEST(Armci, WaitAllDrainsEverything) {
  ArmciMachine m(baseConfig(3));
  std::vector<std::vector<std::uint8_t>> bufs(3,
                                              std::vector<std::uint8_t>(5000));
  std::vector<std::uint8_t> mine(5000, 0xEE);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      NbHandle h1 = a.nbPut(mine.data(), bufs[1].data(), 5000, 1);
      NbHandle h2 = a.nbPut(mine.data(), bufs[2].data(), 5000, 2);
      (void)h1;
      (void)h2;
      a.waitAll();
      a.fence(1);
    } else {
      a.compute(msec(5));
    }
    a.barrier();
  });
  EXPECT_EQ(bufs[1][4999], 0xEE);
  EXPECT_EQ(bufs[2][4999], 0xEE);
}

TEST(Armci, StridedPutMovesEveryRow) {
  // 8 rows of 64 bytes out of a 256-byte-stride source into a 128-byte-
  // stride destination.
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> src(8 * 256, 0), dst(8 * 128, 0);
  for (int r = 0; r < 8; ++r) {
    for (int i = 0; i < 64; ++i) {
      src[static_cast<std::size_t>(r * 256 + i)] =
          static_cast<std::uint8_t>(r + 1);
    }
  }
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      NbHandle h = a.nbPutStrided(src.data(), 256, dst.data(), 128, 64, 8, 1);
      a.wait(h);
      a.fence(1);
    } else {
      a.compute(msec(5));
    }
    a.barrier();
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(dst[static_cast<std::size_t>(r * 128)], r + 1);
    EXPECT_EQ(dst[static_cast<std::size_t>(r * 128 + 63)], r + 1);
    if (r < 7) {
      EXPECT_EQ(dst[static_cast<std::size_t>(r * 128 + 64)], 0)
          << "inter-row gap must stay untouched";
    }
  }
}

TEST(Armci, StridedGetFetchesEveryRow) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> remote(4 * 100, 0), local(4 * 50, 0);
  for (int r = 0; r < 4; ++r) {
    std::fill_n(remote.begin() + r * 100, 50,
                static_cast<std::uint8_t>(10 * (r + 1)));
  }
  m.run([&](Armci& a) {
    if (a.rank() == 1) {
      NbHandle h =
          a.nbGetStrided(remote.data(), 100, local.data(), 50, 50, 4, 0);
      a.wait(h);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(local[static_cast<std::size_t>(r * 50)], 10 * (r + 1));
      }
    } else {
      a.compute(msec(5));
    }
  });
}

TEST(Armci, StridedOpIsOneTransferInTheReport) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> src(16 * 512), dst(16 * 512);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      NbHandle h = a.nbPutStrided(src.data(), 512, dst.data(), 512, 512, 16, 1);
      a.compute(msec(1));
      a.wait(h);
    } else {
      a.compute(msec(5));
    }
  });
  const auto& rep = m.reports()[0];
  EXPECT_EQ(rep.whole.total.transfers, 1);
  EXPECT_EQ(rep.whole.total.bytes, 16 * 512);
}

TEST(Armci, BarrierSynchronizesRanks) {
  ArmciMachine m(baseConfig(4));
  std::vector<TimeNs> after(4);
  m.run([&](Armci& a) {
    a.compute(usec(100) * (static_cast<int>(a.rank()) + 1));
    a.barrier();
    after[static_cast<std::size_t>(a.rank())] = a.now();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], usec(400));
  }
}

TEST(Armci, RepeatedBarriers) {
  ArmciMachine m(baseConfig(3));
  int volleys = 0;
  m.run([&](Armci& a) {
    for (int i = 0; i < 10; ++i) {
      a.barrier();
      if (a.rank() == 0) ++volleys;
    }
  });
  EXPECT_EQ(volleys, 10);
}

TEST(Armci, SectionsWork) {
  ArmciMachine m(baseConfig(2));
  std::vector<std::uint8_t> src(10000), dst(10000);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      a.sectionBegin("update");
      NbHandle h = a.nbPut(src.data(), dst.data(), 10000, 1);
      a.compute(usec(100));
      a.wait(h);
      a.sectionEnd();
    } else {
      a.compute(msec(2));
    }
  });
  const auto* s = m.reports()[0].findSection("update");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total.transfers, 1);
}

TEST(Armci, AccumulateCombinesRemotely) {
  ArmciMachine m(baseConfig(2));
  std::vector<double> target(100, 1.0);
  std::vector<double> contrib(100, 2.0);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      a.acc(contrib.data(), target.data(), 100, 0.5, 1);
    } else {
      a.compute(msec(2));
    }
    a.barrier();
  });
  for (const double v : target) EXPECT_DOUBLE_EQ(v, 2.0);  // 1 + 0.5*2
}

TEST(Armci, ConcurrentAccumulatesAllLand) {
  // Three ranks accumulate into the same remote vector; the target-side
  // combination must be atomic (our fabric serializes arrivals).
  ArmciMachine m(baseConfig(4));
  std::vector<double> target(64, 0.0);
  m.run([&](Armci& a) {
    if (a.rank() != 0) {
      std::vector<double> mine(64, static_cast<double>(a.rank()));
      a.acc(mine.data(), target.data(), 64, 1.0, 0);
    } else {
      a.compute(msec(2));
    }
    a.barrier();
  });
  for (const double v : target) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 3.0);
}

TEST(Armci, NonBlockingAccumulateOverlaps) {
  ArmciMachine m(baseConfig(2));
  std::vector<double> target(1 << 17, 0.0);  // 1 MB of doubles
  std::vector<double> mine(1 << 17, 1.0);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      NbHandle h = a.nbAcc(mine.data(), target.data(), 1 << 17, 3.0, 1);
      a.compute(msec(3));
      a.wait(h);
      a.fence(1);
    } else {
      a.compute(msec(5));
    }
    a.barrier();
  });
  EXPECT_DOUBLE_EQ(target[0], 3.0);
  EXPECT_GT(m.reports()[0].whole.total.maxPct(), 90.0);
}

TEST(Armci, CollectiveMallocSharesAddresses) {
  ArmciMachine m(baseConfig(3));
  int mismatches = -1;
  m.run([&](Armci& a) {
    const auto ptrs = a.collectiveMalloc(1024);
    ASSERT_EQ(ptrs.size(), 3u);
    // Everyone writes a signature into its own segment...
    auto* mine = static_cast<std::uint8_t*>(
        ptrs[static_cast<std::size_t>(a.rank())]);
    std::fill_n(mine, 1024, static_cast<std::uint8_t>(0xA0 + a.rank()));
    a.barrier();
    // ...and rank 0 gets each segment one-sidedly.
    if (a.rank() == 0) {
      int bad = 0;
      for (Rank r = 1; r < 3; ++r) {
        std::vector<std::uint8_t> probe(1024, 0);
        a.get(ptrs[static_cast<std::size_t>(r)], probe.data(), 1024, r);
        for (const auto b : probe) {
          if (b != 0xA0 + r) ++bad;
        }
      }
      mismatches = bad;
    }
    a.barrier();
  });
  EXPECT_EQ(mismatches, 0);
}

TEST(Armci, RepeatedCollectiveMallocsAreDistinct) {
  ArmciMachine m(baseConfig(2));
  m.run([&](Armci& a) {
    const auto first = a.collectiveMalloc(64);
    const auto second = a.collectiveMalloc(64);
    EXPECT_NE(first[static_cast<std::size_t>(a.rank())],
              second[static_cast<std::size_t>(a.rank())]);
  });
}

TEST(Armci, UninstrumentedRuns) {
  ArmciJobConfig cfg = baseConfig(2);
  cfg.armci.instrument = false;
  ArmciMachine m(cfg);
  std::vector<std::uint8_t> src(100, 1), dst(100, 0);
  m.run([&](Armci& a) {
    if (a.rank() == 0) {
      a.put(src.data(), dst.data(), 100, 1);
    } else {
      a.compute(msec(1));
    }
    a.barrier();
  });
  EXPECT_TRUE(m.reports().empty());
  EXPECT_EQ(dst[99], 1);
}

/// Saved report text of a non-blocking put ring on a 4-channel, 2-rail
/// fabric: each rank puts 4 messages of mixed size into its right
/// neighbour's collective slab and waits for all of them.
std::vector<std::string> vciRingReports(int workers) {
  ArmciJobConfig cfg = baseConfig(4);
  EXPECT_TRUE(net::VciParams::parse("4,round-robin", cfg.fabric.vci));
  cfg.fabric.vci.rails = 2;
  cfg.workers = workers;
  ArmciMachine m(cfg);
  std::vector<std::uint8_t> src(64 * 1024, 7);
  m.run([&](Armci& a) {
    const std::vector<void*> slabs = a.collectiveMalloc(4 * 64 * 1024);
    const Rank right = (a.rank() + 1) % a.size();
    auto* dst =
        static_cast<std::uint8_t*>(slabs[static_cast<std::size_t>(right)]);
    std::vector<NbHandle> handles;
    for (int i = 0; i < 4; ++i) {
      const Bytes n = i % 2 == 0 ? 1024 : 64 * 1024;
      handles.push_back(a.nbPut(src.data(), dst + i * 64 * 1024, n, right));
    }
    a.compute(usec(200));
    for (NbHandle& h : handles) a.wait(h);
    a.barrier();
  });
  EXPECT_EQ(m.engine().workersUsed(), workers);
  std::vector<std::string> saved;
  for (const overlap::Report& r : m.reports()) {
    EXPECT_TRUE(r.vci.any()) << "rank " << r.rank << " has no vci block";
    EXPECT_EQ(r.vci.channels, 4);
    std::int64_t posts = 0;
    for (const overlap::VciChannelClass& row : r.vci.rows) posts += row.posts;
    EXPECT_GT(posts, 0) << "rank " << r.rank;
    std::ostringstream os;
    r.save(os);
    saved.push_back(os.str());
  }
  return saved;
}

// The job runner copies every NIC's VCI counters onto its rank's report for
// ARMCI jobs as for MPI ones, identically at any engine worker count.
TEST(Armci, VciCountersReachReportsAtAnyWorkerCount) {
  const std::vector<std::string> seq = vciRingReports(1);
  const std::vector<std::string> par = vciRingReports(4);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace ovp::armci
