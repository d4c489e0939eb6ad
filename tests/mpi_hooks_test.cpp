// Tests for the PERUSE-style external event hooks: an outside tool must
// see the same event stream the overlap framework consumes, without
// perturbing virtual time or the framework's own accounting.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/machine.hpp"

namespace ovp::mpi {
namespace {

struct Trace {
  int calls_entered = 0;
  int calls_exited = 0;
  int xfers_begun = 0;
  int xfers_ended = 0;
  Bytes bytes_begun = 0;
  TimeNs entered_at = 0;
  DurationNs call_time = 0;  // summed enter -> exit brackets
  std::vector<Status> matches;
};

void attachTrace(Mpi& mpi, Trace& t) {
  EventHooks hooks;
  hooks.on_call_enter = [&t](TimeNs now) {
    ++t.calls_entered;
    t.entered_at = now;
  };
  hooks.on_call_exit = [&t](TimeNs now) {
    ++t.calls_exited;
    t.call_time += now - t.entered_at;
  };
  hooks.on_xfer_begin = [&t](TimeNs, Bytes n) {
    ++t.xfers_begun;
    t.bytes_begun += n;
  };
  hooks.on_xfer_end = [&t](TimeNs) { ++t.xfers_ended; };
  hooks.on_match = [&t](TimeNs, Rank src, int tag, Bytes n) {
    t.matches.push_back({src, tag, n});
  };
  mpi.setHooks(std::move(hooks));
}

TEST(Hooks, CallBracketsBalanceAndCountOutermostOnly) {
  JobConfig cfg;
  cfg.nranks = 2;
  Machine m(cfg);
  Trace traces[2];
  m.run([&](Mpi& mpi) {
    attachTrace(mpi, traces[mpi.rank()]);
    mpi.barrier();  // collective: nested p2p must not double-count
    mpi.barrier();
  });
  for (const Trace& t : traces) {
    EXPECT_EQ(t.calls_entered, 2) << "one per outermost barrier call";
    EXPECT_EQ(t.calls_exited, t.calls_entered);
  }
}

TEST(Hooks, SenderSeesXferBeginAndEnd) {
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = Preset::Mvapich2;
  Machine m(cfg);
  Trace trace;
  std::vector<std::uint8_t> buf(1 << 20);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      attachTrace(mpi, trace);
      Request r = mpi.isend(buf.data(), 1 << 20, 1, 3);
      mpi.compute(msec(2));
      mpi.wait(r);
    } else {
      mpi.recv(buf.data(), 1 << 20, 0, 3);
    }
  });
  EXPECT_EQ(trace.xfers_begun, 1);
  EXPECT_EQ(trace.xfers_ended, 1);
  EXPECT_EQ(trace.bytes_begun, 1 << 20);
}

TEST(Hooks, ReceiverSeesMatch) {
  JobConfig cfg;
  cfg.nranks = 2;
  Machine m(cfg);
  Trace trace;
  int v = 5;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(&v, sizeof v, 1, 42);
    } else {
      attachTrace(mpi, trace);
      int got = 0;
      mpi.recv(&got, sizeof got, 0, 42);
    }
  });
  ASSERT_EQ(trace.matches.size(), 1u);
  EXPECT_EQ(trace.matches[0].source, 0);
  EXPECT_EQ(trace.matches[0].tag, 42);
  EXPECT_EQ(trace.matches[0].bytes, static_cast<Bytes>(sizeof(int)));
}

TEST(Hooks, MatchFiresForUnexpectedAndRendezvous) {
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.preset = Preset::OpenMpiLeavePinned;
  Machine m(cfg);
  Trace trace;
  std::vector<std::uint8_t> big(300000);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(big.data(), 300000, 1, 1);  // rendezvous
      const int v = 1;
      mpi.send(&v, sizeof v, 1, 2);  // eager, will be unexpected
    } else {
      attachTrace(mpi, trace);
      mpi.recv(big.data(), 300000, 0, 1);
      mpi.compute(usec(300));  // let the eager message land unexpected
      int got = 0;
      mpi.recv(&got, sizeof got, 0, 2);
    }
  });
  ASSERT_EQ(trace.matches.size(), 2u);
  EXPECT_EQ(trace.matches[0].bytes, 300000);
  EXPECT_EQ(trace.matches[1].tag, 2);
}

TEST(Hooks, HooksDoNotPerturbVirtualTimeOrReports) {
  auto runJob = [](bool with_hooks, Trace* trace) {
    JobConfig cfg;
    cfg.nranks = 2;
    Machine m(cfg);
    std::vector<std::uint8_t> buf(65536);
    m.run([&](Mpi& mpi) {
      if (with_hooks && mpi.rank() == 0) attachTrace(mpi, *trace);
      for (int i = 0; i < 10; ++i) {
        if (mpi.rank() == 0) {
          mpi.send(buf.data(), 65536, 1, 0);
        } else {
          mpi.recv(buf.data(), 65536, 0, 0);
        }
        mpi.compute(usec(100));
      }
    });
    return std::pair<TimeNs, std::int64_t>{
        m.finishTime(), m.reports()[0].whole.total.transfers};
  };
  Trace trace;
  const auto plain = runJob(false, nullptr);
  const auto hooked = runJob(true, &trace);
  EXPECT_EQ(plain.first, hooked.first) << "hooks run in zero virtual time";
  EXPECT_EQ(plain.second, hooked.second);
  EXPECT_GT(trace.xfers_begun, 0);
}

TEST(Hooks, WorkUninstrumented) {
  // Hooks must fire even when the overlap framework is compiled out.
  JobConfig cfg;
  cfg.nranks = 2;
  cfg.mpi.instrument = false;
  Machine m(cfg);
  Trace trace;
  int v = 1;
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      attachTrace(mpi, trace);
      mpi.send(&v, sizeof v, 1, 0);
    } else {
      mpi.recv(&v, sizeof v, 0, 0);
    }
  });
  EXPECT_GT(trace.calls_entered, 0);
  EXPECT_EQ(trace.xfers_begun, 1);
}

TEST(Hooks, CallTimeMatchesFrameworkAccounting) {
  // Call time summed from the hooks must agree with the framework's
  // on-the-fly communication_call_time — two independent paths over the
  // same events.
  JobConfig cfg;
  cfg.nranks = 2;
  Machine m(cfg);
  Trace trace;
  std::vector<std::uint8_t> buf(50000);
  m.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) attachTrace(mpi, trace);
    for (int i = 0; i < 5; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), 50000, 1, 0);
      } else {
        mpi.recv(buf.data(), 50000, 0, 0);
      }
      mpi.compute(usec(50));
    }
  });
  const DurationNs from_framework =
      m.reports()[0].whole.communication_call_time;
  // The hooks fire just outside the monitor's stamps (the stamp itself
  // costs a few ns of virtual time), so allow a tiny slack.
  EXPECT_NEAR(static_cast<double>(trace.call_time),
              static_cast<double>(from_framework),
              static_cast<double>(from_framework) * 0.01);
}

}  // namespace
}  // namespace ovp::mpi
