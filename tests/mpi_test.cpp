// Correctness tests for the simulated MPI library: point-to-point semantics
// across all protocol presets, matching rules, non-blocking completion, and
// collectives.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/machine.hpp"

namespace ovp::mpi {
namespace {

JobConfig baseConfig(int nranks, Preset preset = Preset::OpenMpiPipelined) {
  JobConfig cfg;
  cfg.nranks = nranks;
  cfg.mpi.preset = preset;
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 131 + seed) & 0xff);
  }
  return v;
}

class PresetTest : public ::testing::TestWithParam<Preset> {};

TEST_P(PresetTest, EagerMessageRoundTrip) {
  Machine m(baseConfig(2, GetParam()));
  const auto src = pattern(1000);
  std::vector<std::uint8_t> dst(1000, 0);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(src.data(), 1000, 1, 5);
    } else {
      Status st;
      mpi.recv(dst.data(), 1000, 0, 5, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(st.bytes, 1000);
    }
  });
  EXPECT_EQ(src, dst);
}

TEST_P(PresetTest, RendezvousMessageRoundTrip) {
  Machine m(baseConfig(2, GetParam()));
  const auto src = pattern(1 << 20);  // 1 MB: well past the eager limit
  std::vector<std::uint8_t> dst(1 << 20, 0);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(src.data(), 1 << 20, 1, 9);
    } else {
      mpi.recv(dst.data(), 1 << 20, 0, 9);
    }
  });
  EXPECT_EQ(src, dst);
}

TEST_P(PresetTest, RendezvousUnexpectedThenReceive) {
  // Sender's RTS arrives before the receive is posted.
  Machine m(baseConfig(2, GetParam()));
  const auto src = pattern(300000);
  std::vector<std::uint8_t> dst(300000, 0);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(src.data(), 300000, 1, 1);
    } else {
      mpi.compute(usec(500));  // let the RTS land first
      mpi.recv(dst.data(), 300000, 0, 1);
    }
  });
  EXPECT_EQ(src, dst);
}

TEST_P(PresetTest, NonBlockingBothSides) {
  Machine m(baseConfig(2, GetParam()));
  const auto src = pattern(400000);
  std::vector<std::uint8_t> dst(400000, 0);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      Request r = mpi.isend(src.data(), 400000, 1, 2);
      mpi.compute(usec(100));
      mpi.wait(r);
    } else {
      Request r = mpi.irecv(dst.data(), 400000, 0, 2);
      mpi.compute(usec(100));
      mpi.wait(r);
    }
  });
  EXPECT_EQ(src, dst);
}

TEST_P(PresetTest, ManyMessagesPreserveOrder) {
  // Same (src,dst,tag) channel: non-overtaking order must hold.
  Machine m(baseConfig(2, GetParam()));
  std::vector<int> received;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 20; ++i) mpi.sendT(&i, 1, 1, 3);
    } else {
      for (int i = 0; i < 20; ++i) {
        int v = -1;
        mpi.recvT(&v, 1, 0, 3);
        received.push_back(v);
      }
    }
  });
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST_P(PresetTest, MixedSizesInterleaved) {
  // Eager and rendezvous messages on the same channel stay ordered and
  // intact.
  Machine m(baseConfig(2, GetParam()));
  const auto small = pattern(64, 7);
  const auto large = pattern(500000, 8);
  std::vector<std::uint8_t> r_small(64), r_large(500000);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(small.data(), 64, 1, 4);
      mpi.send(large.data(), 500000, 1, 4);
    } else {
      mpi.recv(r_small.data(), 64, 0, 4);
      mpi.recv(r_large.data(), 500000, 0, 4);
    }
  });
  EXPECT_EQ(small, r_small);
  EXPECT_EQ(large, r_large);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest,
                         ::testing::Values(Preset::OpenMpiPipelined,
                                           Preset::OpenMpiLeavePinned,
                                           Preset::Mvapich2,
                                           Preset::Mvapich2RdmaWrite),
                         [](const auto& info) {
                           switch (info.param) {
                             case Preset::OpenMpiPipelined:
                               return "OpenMpiPipelined";
                             case Preset::OpenMpiLeavePinned:
                               return "OpenMpiLeavePinned";
                             case Preset::Mvapich2:
                               return "Mvapich2";
                             case Preset::Mvapich2RdmaWrite:
                               return "Mvapich2RdmaWrite";
                           }
                           return "unknown";
                         });

TEST(MpiMatching, AnySourceAndAnyTag) {
  Machine m(baseConfig(3));
  int got_sum = 0;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status st;
        mpi.recv(&v, sizeof v, kAnySource, kAnyTag, &st);
        EXPECT_EQ(st.bytes, static_cast<Bytes>(sizeof v));
        EXPECT_EQ(st.source, st.tag);  // senders use tag == own rank
        got_sum += v;
      }
    } else {
      const int v = 10 * mpi.rank();
      mpi.send(&v, sizeof v, 0, mpi.rank());
    }
  });
  EXPECT_EQ(got_sum, 30);
}

TEST(MpiMatching, TagSelectivity) {
  // A recv for tag 7 must not match a pending tag-8 message.
  Machine m(baseConfig(2));
  int first = -1, second = -1;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int a = 100, b = 200;
      mpi.send(&a, sizeof a, 1, 8);
      mpi.send(&b, sizeof b, 1, 7);
    } else {
      mpi.compute(usec(200));  // both messages are unexpected now
      mpi.recv(&first, sizeof first, 0, 7);
      mpi.recv(&second, sizeof second, 0, 8);
    }
  });
  EXPECT_EQ(first, 200);
  EXPECT_EQ(second, 100);
}

// Every delivery path refuses a message larger than its receive buffer:
// eager and rendezvous, under each preset's rendezvous style, whether the
// receive is posted first or the message waits as unexpected.
TEST(MpiMatching, OverflowThrows) {
  for (const Preset preset :
       {Preset::OpenMpiPipelined, Preset::OpenMpiLeavePinned,
        Preset::Mvapich2, Preset::Mvapich2RdmaWrite}) {
    for (const Bytes n : {Bytes{1000}, Bytes{300000}}) {
      for (const bool message_first : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "preset " << static_cast<int>(preset) << ", " << n
                     << " B, " << (message_first ? "message" : "receive")
                     << " first");
        Machine m(baseConfig(2, preset));
        std::string what;
        try {
          m.run([&](Mpi& mpi) {
            std::vector<std::uint8_t> buf(static_cast<std::size_t>(n));
            if (mpi.rank() == 0) {
              mpi.send(buf.data(), n, 1, 0);
            } else {
              if (message_first) mpi.compute(usec(500));
              std::vector<std::uint8_t> tiny(10);
              mpi.recv(tiny.data(), 10, 0, 0);
            }
          });
        } catch (const std::runtime_error& e) {
          what = e.what();
        }
        EXPECT_NE(what.find("overflows recv buffer"), std::string::npos)
            << "what: '" << what << "'";
      }
    }
  }
}

TEST(MpiNonBlocking, TestPollsWithoutBlocking) {
  Machine m(baseConfig(2));
  bool finished_by_test = false;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 1;
      mpi.send(&v, sizeof v, 1, 0);
    } else {
      int v = 0;
      Request r = mpi.irecv(&v, sizeof v, 0, 0);
      int spins = 0;
      while (!mpi.test(r)) {
        mpi.compute(usec(5));
        if (++spins > 10000) FAIL() << "test() never completed";
      }
      finished_by_test = true;
      EXPECT_EQ(v, 1);
      EXPECT_FALSE(r.valid());
    }
  });
  EXPECT_TRUE(finished_by_test);
}

TEST(MpiNonBlocking, WaitallCompletesAll) {
  Machine m(baseConfig(4));
  std::vector<int> got(4, -1);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      std::vector<int> vals(4);
      std::vector<Request> reqs;
      for (Rank p = 1; p < 4; ++p) {
        reqs.push_back(mpi.irecvT(&vals[static_cast<std::size_t>(p)], 1, p, 0));
      }
      mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      for (Rank p = 1; p < 4; ++p) {
        got[static_cast<std::size_t>(p)] = vals[static_cast<std::size_t>(p)];
        EXPECT_FALSE(reqs[static_cast<std::size_t>(p - 1)].valid());
      }
    } else {
      const int v = static_cast<int>(mpi.rank()) * 7;
      mpi.sendT(&v, 1, 0, 0);
    }
  });
  EXPECT_EQ(got[1], 7);
  EXPECT_EQ(got[2], 14);
  EXPECT_EQ(got[3], 21);
}

TEST(MpiNonBlocking, WaitanyReturnsACompletedIndex) {
  Machine m(baseConfig(3));
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      int a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(mpi.irecvT(&a, 1, 1, 0));
      reqs.push_back(mpi.irecvT(&b, 1, 2, 0));
      Status st;
      const int first = mpi.waitany(reqs.data(), 2, &st);
      // Rank 1 sends much earlier than rank 2.
      EXPECT_EQ(first, 0);
      EXPECT_EQ(st.source, 1);
      EXPECT_FALSE(reqs[0].valid());
      EXPECT_TRUE(reqs[1].valid());
      const int second = mpi.waitany(reqs.data(), 2);
      EXPECT_EQ(second, 1);
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
    } else if (mpi.rank() == 1) {
      const int v = 11;
      mpi.sendT(&v, 1, 0, 0);
    } else {
      mpi.compute(msec(1));
      const int v = 22;
      mpi.sendT(&v, 1, 0, 0);
    }
  });
}

TEST(MpiNonBlocking, WaitanyWithNoValidRequests) {
  Machine m(baseConfig(1));
  m.run([&](Mpi& mpi) {
    Request none[2];
    EXPECT_EQ(mpi.waitany(none, 2), -1);
  });
}

TEST(MpiNonBlocking, TestallConsumesOnlyWhenAllDone) {
  Machine m(baseConfig(2));
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      int a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(mpi.irecvT(&a, 1, 1, 0));
      reqs.push_back(mpi.irecvT(&b, 1, 1, 1));
      int spins = 0;
      while (!mpi.testall(reqs.data(), 2)) {
        EXPECT_TRUE(reqs[0].valid()) << "testall must not consume partially";
        mpi.compute(usec(10));
        if (++spins > 100000) FAIL() << "testall never completed";
      }
      EXPECT_FALSE(reqs[0].valid());
      EXPECT_FALSE(reqs[1].valid());
      EXPECT_EQ(a + b, 30);
    } else {
      const int x = 10, y = 20;
      mpi.sendT(&x, 1, 0, 0);
      mpi.compute(usec(500));
      mpi.sendT(&y, 1, 0, 1);
    }
  });
}

TEST(MpiSsend, BlocksUntilReceiverPosts) {
  Machine m(baseConfig(2));
  TimeNs send_returned = -1;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 9;
      mpi.ssend(&v, sizeof v, 1, 0);  // small message, still synchronous
      send_returned = mpi.now();
    } else {
      mpi.compute(msec(2));  // receiver shows up late
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 0);
      EXPECT_EQ(v, 9);
    }
  });
  EXPECT_GE(send_returned, msec(2))
      << "ssend must not complete before the matching receive";
}

TEST(MpiSsend, WorksAcrossPresets) {
  for (const Preset preset :
       {Preset::OpenMpiPipelined, Preset::OpenMpiLeavePinned,
        Preset::Mvapich2RdmaWrite}) {
    Machine m(baseConfig(2, preset));
    const auto data = pattern(100000);
    std::vector<std::uint8_t> dst(100000);
    m.run([&](Mpi& mpi) {
      if (mpi.rank() == 0) {
        mpi.ssend(data.data(), 100000, 1, 0);
      } else {
        mpi.compute(usec(200));
        mpi.recv(dst.data(), 100000, 0, 0);
      }
    });
    EXPECT_EQ(data, dst);
  }
}

TEST(Collectives, AlltoallvMovesVariableBlocks) {
  const int P = 4;
  Machine m(baseConfig(P));
  // Rank r sends (r + dest + 1) ints to each dest.
  std::vector<std::vector<int>> received(P);
  m.run([&](Mpi& mpi) {
    const int r = static_cast<int>(mpi.rank());
    std::vector<Bytes> scounts(P), soffs(P), rcounts(P), roffs(P);
    Bytes stotal = 0, rtotal = 0;
    for (int p = 0; p < P; ++p) {
      scounts[static_cast<std::size_t>(p)] =
          static_cast<Bytes>((r + p + 1) * sizeof(int));
      soffs[static_cast<std::size_t>(p)] = stotal;
      stotal += scounts[static_cast<std::size_t>(p)];
      rcounts[static_cast<std::size_t>(p)] =
          static_cast<Bytes>((p + r + 1) * sizeof(int));
      roffs[static_cast<std::size_t>(p)] = rtotal;
      rtotal += rcounts[static_cast<std::size_t>(p)];
    }
    std::vector<int> sbuf(static_cast<std::size_t>(stotal / 4));
    for (int p = 0; p < P; ++p) {
      for (Bytes i = 0; i < scounts[static_cast<std::size_t>(p)] / 4; ++i) {
        sbuf[static_cast<std::size_t>(soffs[static_cast<std::size_t>(p)] / 4 +
                                      i)] = r * 100 + p;
      }
    }
    std::vector<int> rbuf(static_cast<std::size_t>(rtotal / 4), -1);
    mpi.alltoallv(sbuf.data(), scounts.data(), soffs.data(), rbuf.data(),
                  rcounts.data(), roffs.data());
    received[static_cast<std::size_t>(r)] = rbuf;
  });
  for (int me = 0; me < P; ++me) {
    Bytes off = 0;
    for (int from = 0; from < P; ++from) {
      const int n = from + me + 1;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(received[static_cast<std::size_t>(me)]
                          [static_cast<std::size_t>(off / 4) +
                           static_cast<std::size_t>(i)],
                  from * 100 + me)
            << "me=" << me << " from=" << from;
      }
      off += static_cast<Bytes>(n * sizeof(int));
    }
  }
}

TEST(Collectives, AlltoallvWithZeroCounts) {
  const int P = 3;
  Machine m(baseConfig(P));
  m.run([&](Mpi& mpi) {
    const int r = static_cast<int>(mpi.rank());
    // Only rank 0 sends, only to rank 2.
    std::vector<Bytes> scounts(P, 0), soffs(P, 0), rcounts(P, 0), roffs(P, 0);
    int payload = 77;
    int incoming = -1;
    if (r == 0) scounts[2] = sizeof(int);
    if (r == 2) rcounts[0] = sizeof(int);
    mpi.alltoallv(&payload, scounts.data(), soffs.data(), &incoming,
                  rcounts.data(), roffs.data());
    if (r == 2) {
      EXPECT_EQ(incoming, 77);
    } else {
      EXPECT_EQ(incoming, -1);
    }
  });
}

TEST(MpiProbe, IprobeSeesPendingMessage) {
  Machine m(baseConfig(2));
  bool seen_before = true, seen_after = false;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      const int v = 3;
      mpi.send(&v, sizeof v, 1, 11);
    } else {
      seen_before = mpi.iprobe(0, 11);  // likely false at t=0
      mpi.compute(usec(500));
      Status st;
      seen_after = mpi.iprobe(0, 11, &st);
      if (seen_after) {
        EXPECT_EQ(st.source, 0);
        EXPECT_EQ(st.tag, 11);
      }
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 11);
      EXPECT_EQ(v, 3);
    }
  });
  EXPECT_FALSE(seen_before);
  EXPECT_TRUE(seen_after);
}

TEST(MpiProbe, ProbeBlocksUntilMessage) {
  Machine m(baseConfig(2));
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.compute(usec(300));
      const int v = 5;
      mpi.send(&v, sizeof v, 1, 2);
    } else {
      Status st;
      mpi.probe(0, 2, &st);
      EXPECT_GE(mpi.now(), usec(300));
      EXPECT_EQ(st.bytes, static_cast<Bytes>(sizeof(int)));
      int v = 0;
      mpi.recv(&v, sizeof v, 0, 2);
      EXPECT_EQ(v, 5);
    }
  });
}

TEST(MpiSendrecv, ExchangesBothWays) {
  Machine m(baseConfig(2));
  std::vector<int> got(2, -1);
  m.run([&](Mpi& mpi) {
    const int mine = static_cast<int>(mpi.rank()) + 40;
    int theirs = -1;
    const Rank peer = 1 - mpi.rank();
    mpi.sendrecv(&mine, sizeof mine, peer, 0, &theirs, sizeof theirs, peer, 0);
    got[static_cast<std::size_t>(mpi.rank())] = theirs;
  });
  EXPECT_EQ(got[0], 41);
  EXPECT_EQ(got[1], 40);
}

// ---------------------------------------------------------- collectives

TEST(Collectives, BarrierSynchronizes) {
  Machine m(baseConfig(4));
  std::vector<TimeNs> after(4);
  m.run([&](Mpi& mpi) {
    mpi.compute(usec(100) * (static_cast<int>(mpi.rank()) + 1));
    mpi.barrier();
    after[static_cast<std::size_t>(mpi.rank())] = mpi.now();
  });
  // Nobody leaves the barrier before the slowest rank arrived.
  for (int r = 0; r < 4; ++r) EXPECT_GE(after[static_cast<std::size_t>(r)], usec(400));
}

TEST(Collectives, BcastFromEveryRoot) {
  for (Rank root = 0; root < 4; ++root) {
    Machine m(baseConfig(4));
    std::vector<std::vector<std::uint8_t>> bufs(
        4, std::vector<std::uint8_t>(2048, 0));
    const auto data = pattern(2048, static_cast<std::uint8_t>(root + 1));
    m.run([&](Mpi& mpi) {
      auto& buf = bufs[static_cast<std::size_t>(mpi.rank())];
      if (mpi.rank() == root) buf = data;
      mpi.bcast(buf.data(), 2048, root);
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], data) << "root=" << root;
    }
  }
}

TEST(Collectives, ReduceSum) {
  Machine m(baseConfig(5));
  std::vector<double> result(3, 0.0);
  m.run([&](Mpi& mpi) {
    const double base = static_cast<double>(mpi.rank());
    const double in[3] = {base, base * 2, 1.0};
    double out[3] = {0, 0, 0};
    mpi.reduce(in, out, 3, Op::Sum, 0);
    if (mpi.rank() == 0) {
      result.assign(out, out + 3);
    }
  });
  EXPECT_DOUBLE_EQ(result[0], 10.0);  // 0+1+2+3+4
  EXPECT_DOUBLE_EQ(result[1], 20.0);
  EXPECT_DOUBLE_EQ(result[2], 5.0);
}

TEST(Collectives, ReduceMaxMinProd) {
  Machine m(baseConfig(4));
  double got_max = 0, got_min = 0, got_prod = 0;
  m.run([&](Mpi& mpi) {
    const double v = static_cast<double>(mpi.rank()) + 1.0;  // 1..4
    double out = 0;
    mpi.reduce(&v, &out, 1, Op::Max, 0);
    if (mpi.rank() == 0) got_max = out;
    mpi.reduce(&v, &out, 1, Op::Min, 0);
    if (mpi.rank() == 0) got_min = out;
    mpi.reduce(&v, &out, 1, Op::Prod, 0);
    if (mpi.rank() == 0) got_prod = out;
  });
  EXPECT_DOUBLE_EQ(got_max, 4.0);
  EXPECT_DOUBLE_EQ(got_min, 1.0);
  EXPECT_DOUBLE_EQ(got_prod, 24.0);
}

TEST(Collectives, AllreduceGivesEveryRankTheSum) {
  Machine m(baseConfig(6));
  std::vector<double> results(6, 0.0);
  m.run([&](Mpi& mpi) {
    const double v = 2.0;
    double out = 0;
    mpi.allreduce(&v, &out, 1, Op::Sum);
    results[static_cast<std::size_t>(mpi.rank())] = out;
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 12.0);
}

TEST(Collectives, AlltoallPermutesBlocks) {
  const int P = 4;
  const Bytes kBlock = 256;
  Machine m(baseConfig(P));
  std::vector<std::vector<std::uint8_t>> rbufs(
      P, std::vector<std::uint8_t>(static_cast<std::size_t>(P * kBlock)));
  m.run([&](Mpi& mpi) {
    std::vector<std::uint8_t> sbuf(static_cast<std::size_t>(P * kBlock));
    for (int p = 0; p < P; ++p) {
      // Block destined to p is filled with (my_rank * P + p).
      std::memset(sbuf.data() + p * kBlock,
                  static_cast<int>(mpi.rank()) * P + p,
                  static_cast<std::size_t>(kBlock));
    }
    mpi.alltoall(sbuf.data(), rbufs[static_cast<std::size_t>(mpi.rank())].data(),
                 kBlock);
  });
  for (int me = 0; me < P; ++me) {
    for (int from = 0; from < P; ++from) {
      const std::uint8_t expect = static_cast<std::uint8_t>(from * P + me);
      EXPECT_EQ(rbufs[static_cast<std::size_t>(me)]
                     [static_cast<std::size_t>(from * kBlock)],
                expect);
    }
  }
}

TEST(Collectives, AllgatherCollectsInRankOrder) {
  const int P = 5;
  Machine m(baseConfig(P));
  std::vector<std::vector<int>> views(P, std::vector<int>(P, -1));
  m.run([&](Mpi& mpi) {
    const int mine = static_cast<int>(mpi.rank()) * 3;
    mpi.allgather(&mine, views[static_cast<std::size_t>(mpi.rank())].data(),
                  sizeof(int));
  });
  for (int me = 0; me < P; ++me) {
    for (int p = 0; p < P; ++p) {
      EXPECT_EQ(views[static_cast<std::size_t>(me)][static_cast<std::size_t>(p)],
                p * 3);
    }
  }
}

TEST(Collectives, GatherAndScatter) {
  const int P = 4;
  Machine m(baseConfig(P));
  std::vector<int> gathered(P, -1);
  std::vector<int> scattered(P, -1);
  m.run([&](Mpi& mpi) {
    const int mine = static_cast<int>(mpi.rank()) + 100;
    std::vector<int> all(P);
    mpi.gather(&mine, all.data(), sizeof(int), 0);
    if (mpi.rank() == 0) gathered = all;

    std::vector<int> src(P);
    if (mpi.rank() == 0) {
      for (int p = 0; p < P; ++p) src[static_cast<std::size_t>(p)] = p * p;
    }
    int out = -1;
    mpi.scatter(src.data(), &out, sizeof(int), 0);
    scattered[static_cast<std::size_t>(mpi.rank())] = out;
  });
  for (int p = 0; p < P; ++p) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(p)], p + 100);
    EXPECT_EQ(scattered[static_cast<std::size_t>(p)], p * p);
  }
}

TEST(Collectives, NonPowerOfTwoRanks) {
  Machine m(baseConfig(7));
  std::vector<double> sums(7, 0);
  m.run([&](Mpi& mpi) {
    mpi.barrier();
    const double v = 1.0;
    double out = 0;
    mpi.allreduce(&v, &out, 1, Op::Sum);
    sums[static_cast<std::size_t>(mpi.rank())] = out;
    std::vector<std::uint8_t> b(128, mpi.rank() == 2 ? 0xAB : 0x00);
    mpi.bcast(b.data(), 128, 2);
    EXPECT_EQ(b[0], 0xAB);
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 7.0);
}

TEST(Collectives, LargeAllreduceSumIsExact) {
  // Vectors of 96 KiB and more travel by rendezvous through reduce+bcast;
  // on small-integer data every rank order gives the exact sum.
  for (const int P : {3, 4, 7}) {
    Machine m(baseConfig(P));
    const int count = 4096 * P;
    std::vector<double> result(static_cast<std::size_t>(count));
    m.run([&](Mpi& mpi) {
      std::vector<double> in(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        in[static_cast<std::size_t>(i)] =
            static_cast<double>((i % 13) + mpi.rank());
      }
      std::vector<double> out(static_cast<std::size_t>(count), 0.0);
      mpi.allreduce(in.data(), out.data(), count, Op::Sum);
      if (mpi.rank() == 0) result = out;
    });
    for (int i = 0; i < count; ++i) {
      const double expect =
          static_cast<double>(P * (i % 13)) +
          static_cast<double>(P * (P - 1)) / 2.0;
      ASSERT_DOUBLE_EQ(result[static_cast<std::size_t>(i)], expect)
          << "P=" << P << " i=" << i;
    }
  }
}

TEST(Collectives, LargeAllreduceMax) {
  Machine m(baseConfig(4));
  const int count = 20000;
  std::vector<double> result(static_cast<std::size_t>(count));
  m.run([&](Mpi& mpi) {
    std::vector<double> in(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      in[static_cast<std::size_t>(i)] =
          static_cast<double>((i + mpi.rank() * 7919) % 1000);
    }
    std::vector<double> out(static_cast<std::size_t>(count));
    mpi.allreduce(in.data(), out.data(), count, Op::Max);
    if (mpi.rank() == 0) result = out;
  });
  for (int i = 0; i < count; ++i) {
    double expect = 0;
    for (int r = 0; r < 4; ++r) {
      expect = std::max(expect, static_cast<double>((i + r * 7919) % 1000));
    }
    ASSERT_DOUBLE_EQ(result[static_cast<std::size_t>(i)], expect) << i;
  }
}

TEST(Collectives, LargeBcastFromTwoRoots) {
  // A rendezvous-sized message down the binomial tree, rooted at rank 0
  // and at rank 2.
  for (const Rank root : {Rank{0}, Rank{2}}) {
    Machine m(baseConfig(4));
    const Bytes n = 256 * 1024;
    std::vector<std::vector<std::uint8_t>> bufs(
        4, std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0));
    const auto data = pattern(static_cast<std::size_t>(n),
                              static_cast<std::uint8_t>(root + 3));
    m.run([&](Mpi& mpi) {
      auto& buf = bufs[static_cast<std::size_t>(mpi.rank())];
      if (mpi.rank() == root) buf = data;
      mpi.bcast(buf.data(), n, root);
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], data) << "root=" << root;
    }
  }
}

TEST(Collectives, LargeBcastOfOddSizeOnThreeRanks) {
  // A rendezvous-sized message whose size is not a multiple of the rank
  // count reaches the tree's last rank intact.
  Machine m(baseConfig(3));
  const Bytes n = 100001;
  std::vector<std::uint8_t> got;
  const auto data = pattern(static_cast<std::size_t>(n), 9);
  m.run([&](Mpi& mpi) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(n), 0);
    if (mpi.rank() == 0) buf = data;
    mpi.bcast(buf.data(), n, 0);
    if (mpi.rank() == 2) got = buf;
  });
  EXPECT_EQ(got, data);
}

TEST(Machine, UninstrumentedRunHasNoReports) {
  JobConfig cfg = baseConfig(2);
  cfg.mpi.instrument = false;
  Machine m(cfg);
  m.run([](Mpi& mpi) {
    int v = static_cast<int>(mpi.rank());
    if (mpi.rank() == 0) {
      mpi.send(&v, sizeof v, 1, 0);
    } else {
      mpi.recv(&v, sizeof v, 0, 0);
    }
    EXPECT_FALSE(mpi.instrumented());
  });
  EXPECT_TRUE(m.reports().empty());
}

TEST(Machine, InstrumentedRunCollectsPerRankReports) {
  Machine m(baseConfig(3));
  m.run([](Mpi& mpi) {
    mpi.barrier();
  });
  ASSERT_EQ(m.reports().size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(m.reports()[static_cast<std::size_t>(r)].rank, r);
    EXPECT_GT(m.reports()[static_cast<std::size_t>(r)].whole.calls, 0);
  }
}

TEST(Machine, InstrumentationAddsBoundedOverhead) {
  // The same job instrumented vs not: virtual finish times must be close
  // (paper Fig. 20 reports < 0.9% on NAS).
  auto runJob = [](bool instrument) {
    JobConfig cfg = baseConfig(2);
    cfg.mpi.instrument = instrument;
    Machine m(cfg);
    m.run([](Mpi& mpi) {
      std::vector<std::uint8_t> buf(4096);
      for (int i = 0; i < 50; ++i) {
        if (mpi.rank() == 0) {
          mpi.send(buf.data(), 4096, 1, 0);
        } else {
          mpi.recv(buf.data(), 4096, 0, 0);
        }
        mpi.compute(usec(50));
      }
    });
    return m.finishTime();
  };
  const double plain = static_cast<double>(runJob(false));
  const double inst = static_cast<double>(runJob(true));
  EXPECT_GE(inst, plain);
  EXPECT_LT((inst - plain) / plain, 0.02);
}

TEST(Machine, AnalyticTableMatchesFabric) {
  net::FabricParams p;
  const auto table = analyticTable(p);
  EXPECT_GT(table.points(), 10u);
  EXPECT_EQ(table.lookup(1024), p.unloadedTransfer(1024));
}

}  // namespace
}  // namespace ovp::mpi
