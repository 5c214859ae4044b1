// Discrete-event simulator: event ordering, process scheduling, blocking,
// channels, determinism.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/channel.h"
#include "sim/simulator.h"

namespace dse::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Millis(30), [&] { order.push_back(3); });
  sim.At(Millis(10), [&] { order.push_back(1); });
  sim.At(Millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.RunUntilIdle(), Millis(30));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  SimTime seen = -1;
  sim.At(Millis(10), [&] {
    sim.After(Millis(5), [&] { seen = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, Millis(15));
}

TEST(Simulator, ProcessSleepAdvancesVirtualTime) {
  Simulator sim;
  SimTime end = 0;
  sim.Spawn("sleeper", [&](Context& ctx) {
    ctx.Sleep(Seconds(2));
    ctx.Sleep(Millis(500));
    end = ctx.Now();
  });
  sim.RunUntilIdle();
  EXPECT_EQ(end, Seconds(2) + Millis(500));
}

TEST(Simulator, WaitUntilPastTimeIsNoop) {
  Simulator sim;
  sim.Spawn("p", [&](Context& ctx) {
    ctx.Sleep(Millis(10));
    ctx.WaitUntil(Millis(5));  // already past
    EXPECT_EQ(ctx.Now(), Millis(10));
  });
  sim.RunUntilIdle();
}

TEST(Simulator, ProcessesInterleaveByTime) {
  Simulator sim;
  std::vector<std::string> log;
  sim.Spawn("a", [&](Context& ctx) {
    log.push_back("a0");
    ctx.Sleep(Millis(10));
    log.push_back("a1");
  });
  sim.Spawn("b", [&](Context& ctx) {
    ctx.Sleep(Millis(5));
    log.push_back("b0");
    ctx.Sleep(Millis(10));
    log.push_back("b1");
  });
  sim.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
}

TEST(Simulator, BlockUnblock) {
  Simulator sim;
  bool woke = false;
  const auto pid = sim.Spawn("blocked", [&](Context& ctx) {
    ctx.Block();
    woke = true;
  });
  sim.At(Millis(42), [&] { sim.Unblock(pid); });
  sim.RunUntilIdle();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.Now(), Millis(42));
}

TEST(Simulator, UnblockBeforeBlockGrantsPermit) {
  Simulator sim;
  bool done = false;
  const auto pid = sim.Spawn("p", [&](Context& ctx) {
    ctx.Sleep(Millis(10));
    ctx.Block();  // permit already granted at t=1ms: returns immediately
    EXPECT_EQ(ctx.Now(), Millis(10));
    done = true;
  });
  sim.At(Millis(1), [&] { sim.Unblock(pid); });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
}

TEST(Simulator, SpawnFromProcess) {
  Simulator sim;
  std::vector<int> order;
  sim.Spawn("parent", [&](Context& ctx) {
    order.push_back(1);
    ctx.simulator().Spawn("child", [&](Context& cctx) {
      order.push_back(2);
      cctx.Sleep(Millis(1));
      order.push_back(4);
    });
    ctx.Sleep(Millis(2));
    order.push_back(5);
    (void)ctx;
  });
  sim.At(Millis(1), [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Simulator, LiveProcessCount) {
  Simulator sim;
  EXPECT_EQ(sim.live_process_count(), 0);
  sim.Spawn("p", [](Context& ctx) { ctx.Sleep(Millis(1)); });
  EXPECT_EQ(sim.live_process_count(), 1);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.live_process_count(), 0);
}

TEST(SimulatorDeathTest, DeadlockIsDetected) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Spawn("stuck", [](Context& ctx) { ctx.Block(); });
        sim.RunUntilIdle();
      },
      "deadlock");
}

TEST(Channel, PushThenPop) {
  Simulator sim;
  Channel<int> ch(&sim);
  std::vector<int> got;
  sim.Spawn("consumer", [&](Context& ctx) {
    got.push_back(ch.Pop(ctx));
    got.push_back(ch.Pop(ctx));
  });
  sim.At(Millis(1), [&] { ch.Push(10); });
  sim.At(Millis(2), [&] { ch.Push(20); });
  sim.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Channel, PopBeforePushBlocks) {
  Simulator sim;
  Channel<int> ch(&sim);
  SimTime when = -1;
  sim.Spawn("consumer", [&](Context& ctx) {
    (void)ch.Pop(ctx);
    when = ctx.Now();
  });
  sim.At(Millis(7), [&] { ch.Push(1); });
  sim.RunUntilIdle();
  EXPECT_EQ(when, Millis(7));
}

TEST(Channel, ProducerIsAnotherProcess) {
  Simulator sim;
  Channel<int> ch(&sim);
  int got = 0;
  sim.Spawn("consumer", [&](Context& ctx) { got = ch.Pop(ctx); });
  sim.Spawn("producer", [&](Context& ctx) {
    ctx.Sleep(Millis(3));
    ch.Push(99);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(got, 99);
}

TEST(Channel, MultipleConsumersServedFifo) {
  Simulator sim;
  Channel<int> ch(&sim);
  std::vector<std::pair<std::string, int>> got;
  sim.Spawn("c1", [&](Context& ctx) { got.emplace_back("c1", ch.Pop(ctx)); });
  sim.Spawn("c2", [&](Context& ctx) {
    ctx.Sleep(Millis(1));  // c2 blocks after c1
    got.emplace_back("c2", ch.Pop(ctx));
  });
  sim.At(Millis(5), [&] { ch.Push(1); });
  sim.At(Millis(6), [&] { ch.Push(2); });
  sim.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::string, int>{"c1", 1}));
  EXPECT_EQ(got[1], (std::pair<std::string, int>{"c2", 2}));
}

TEST(Channel, TryPop) {
  Simulator sim;
  Channel<int> ch(&sim);
  EXPECT_FALSE(ch.TryPop().has_value());
  ch.Push(5);
  EXPECT_EQ(ch.TryPop().value(), 5);
  EXPECT_TRUE(ch.empty());
}

TEST(Simulator, DeterministicReplay) {
  auto run = [] {
    Simulator sim;
    Channel<int> ch(&sim);
    std::vector<SimTime> times;
    for (int i = 0; i < 3; ++i) {
      std::string name = "w";
      name += std::to_string(i);
      sim.Spawn(name, [&, i](Context& ctx) {
        ctx.Sleep(Millis(i + 1));
        ch.Push(i);
        ctx.Sleep(Millis(10));
        times.push_back(ctx.Now());
      });
    }
    sim.Spawn("collector", [&](Context& ctx) {
      for (int i = 0; i < 3; ++i) (void)ch.Pop(ctx);
      times.push_back(ctx.Now());
    });
    sim.RunUntilIdle();
    return times;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dse::sim
