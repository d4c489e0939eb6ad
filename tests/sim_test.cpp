// Unit tests for the discrete-event engine: virtual time, determinism,
// wake-token semantics, handler ordering, deadlock detection, error
// propagation, reuse across runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace ovp::sim {
namespace {

TEST(Engine, SingleRankComputeAdvancesTime) {
  Engine eng;
  TimeNs observed = -1;
  eng.run(1, [&](Context& ctx) {
    EXPECT_EQ(ctx.now(), 0);
    ctx.compute(100);
    EXPECT_EQ(ctx.now(), 100);
    ctx.compute(50);
    observed = ctx.now();
  });
  EXPECT_EQ(observed, 150);
  EXPECT_EQ(eng.finishTime(), 150);
}

// OVPROF_STACK_KB sizes fiber stacks only when it is a whole number of KiB
// in range; a value whose byte count wraps would leave a fiber one page.
TEST(Fiber, StackSizeEnvironmentIsCheckedBeforeUse) {
  unsetenv("OVPROF_STACK_KB");
  const std::size_t fallback = Fiber::defaultStackBytes();
  setenv("OVPROF_STACK_KB", "128", 1);
  EXPECT_EQ(Fiber::defaultStackBytes(), std::size_t{128} * 1024);
  for (const char* bad : {"64abc", "-5", "18014398509481984"}) {
    setenv("OVPROF_STACK_KB", bad, 1);
    EXPECT_EQ(Fiber::defaultStackBytes(), fallback) << bad;
  }
  unsetenv("OVPROF_STACK_KB");
}

TEST(Engine, ZeroComputeIsLegal) {
  Engine eng;
  eng.run(1, [&](Context& ctx) {
    ctx.compute(0);
    EXPECT_EQ(ctx.now(), 0);
  });
}

TEST(Engine, RanksShareVirtualClock) {
  Engine eng;
  std::vector<TimeNs> finish(2);
  eng.run(2, [&](Context& ctx) {
    ctx.compute(ctx.rank() == 0 ? 100 : 300);
    finish[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  EXPECT_EQ(finish[0], 100);
  EXPECT_EQ(finish[1], 300);
  EXPECT_EQ(eng.finishTime(), 300);
}

TEST(Engine, WorldSizeAndRankVisible) {
  Engine eng;
  std::atomic<int> sum{0};
  eng.run(4, [&](Context& ctx) {
    EXPECT_EQ(ctx.worldSize(), 4);
    sum += ctx.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Engine, HandlerRunsAtScheduledTime) {
  Engine eng;
  TimeNs handler_time = -1;
  eng.run(1, [&](Context& ctx) {
    ctx.engine().after(500, [&] { handler_time = ctx.engine().now(); });
    ctx.compute(1000);
    EXPECT_EQ(handler_time, 500);
  });
}

TEST(Engine, WakeResumesSleepingRank) {
  Engine eng;
  TimeNs woke_at = -1;
  eng.run(1, [&](Context& ctx) {
    ctx.engine().after(700, [&] { ctx.engine().wake(0); });
    ctx.sleep();
    woke_at = ctx.now();
  });
  EXPECT_EQ(woke_at, 700);
}

TEST(Engine, WakeDuringComputeIsRememberedAsToken) {
  Engine eng;
  eng.run(1, [&](Context& ctx) {
    ctx.engine().after(100, [&] { ctx.engine().wake(0); });
    ctx.compute(500);  // wake lands while busy
    const TimeNs before = ctx.now();
    ctx.sleep();  // must consume the token and return immediately
    EXPECT_EQ(ctx.now(), before);
  });
}

TEST(Engine, DuplicateWakesCoalesce) {
  Engine eng;
  eng.run(1, [&](Context& ctx) {
    ctx.engine().after(100, [&] {
      ctx.engine().wake(0);
      ctx.engine().wake(0);
      ctx.engine().wake(0);
    });
    ctx.sleep();
    EXPECT_EQ(ctx.now(), 100);
    // A second sleep would deadlock if spurious wakes were queued; verify a
    // timed one works.
    ctx.engine().after(50, [&] { ctx.engine().wake(0); });
    ctx.sleep();
    EXPECT_EQ(ctx.now(), 150);
  });
}

TEST(Engine, EventsOrderedByTimeThenInsertion) {
  Engine eng;
  std::vector<int> order;
  eng.run(1, [&](Context& ctx) {
    ctx.engine().after(200, [&] { order.push_back(2); });
    ctx.engine().after(100, [&] { order.push_back(1); });
    ctx.engine().after(100, [&] { order.push_back(11); });  // same time, later
    ctx.compute(300);
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 11);
  EXPECT_EQ(order[2], 2);
}

TEST(Engine, DeterministicInterleaving) {
  auto trace = [] {
    Engine eng;
    std::vector<std::pair<Rank, TimeNs>> log;
    eng.run(3, [&](Context& ctx) {
      for (int i = 0; i < 5; ++i) {
        ctx.compute(10 * (static_cast<int>(ctx.rank()) + 1));
        log.emplace_back(ctx.rank(), ctx.now());
      }
    });
    return log;
  };
  const auto a = trace();
  const auto b = trace();
  EXPECT_EQ(a, b);
}

TEST(Engine, DeadlockIsDetected) {
  Engine eng;
  EXPECT_THROW(eng.run(1, [](Context& ctx) { ctx.sleep(); }),
               std::runtime_error);
}

TEST(Engine, DeadlockWithSomeRanksFinished) {
  Engine eng;
  EXPECT_THROW(eng.run(2,
                       [](Context& ctx) {
                         if (ctx.rank() == 1) ctx.sleep();  // never woken
                       }),
               std::runtime_error);
}

TEST(Engine, RankExceptionPropagates) {
  Engine eng;
  EXPECT_THROW(eng.run(2,
                       [](Context& ctx) {
                         ctx.compute(10);
                         if (ctx.rank() == 0) {
                           throw std::logic_error("rank failure");
                         }
                         ctx.sleep();  // would deadlock; must be aborted
                       }),
               std::logic_error);
}

TEST(Engine, ReusableAcrossRuns) {
  Engine eng;
  for (int iter = 0; iter < 3; ++iter) {
    TimeNs t = -1;
    eng.run(2, [&](Context& ctx) {
      ctx.compute(100);
      if (ctx.rank() == 0) t = ctx.now();
    });
    EXPECT_EQ(t, 100) << "virtual clock must restart at 0 each run";
  }
}

TEST(Engine, ManyRanks) {
  Engine eng;
  std::atomic<int> done{0};
  eng.run(32, [&](Context& ctx) {
    ctx.compute(static_cast<DurationNs>(ctx.rank()));
    ++done;
  });
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(eng.finishTime(), 31);
}

TEST(Engine, PingPongViaWake) {
  // Two ranks alternate via wake tokens: a tiny cooperative protocol that
  // exercises sleep/wake across ranks through handlers.
  Engine eng;
  int volleys = 0;
  eng.run(2, [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      if (ctx.rank() == 0) {
        ctx.compute(5);
        ctx.engine().after(1, [&e = ctx.engine()] { e.wake(1); });
        ctx.sleep();
      } else {
        ctx.sleep();
        ++volleys;
        ctx.engine().after(1, [&e = ctx.engine()] { e.wake(0); });
      }
    }
    // Final handshake: rank 1 wakes rank 0 one last time above; rank 0's
    // last sleep consumes it.
  });
  EXPECT_EQ(volleys, 10);
}

TEST(Engine, EventsProcessedCounterAdvances) {
  Engine eng;
  eng.run(1, [](Context& ctx) { ctx.compute(1); });
  EXPECT_GT(eng.eventsProcessed(), 0);
}

}  // namespace
}  // namespace ovp::sim
