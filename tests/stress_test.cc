// Stress: large process counts, deep event chains, message storms — the
// scalability margins of the simulator and the threaded runtime.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

TEST(StressSim, HundredProcessesInterleave) {
  sim::Simulator sim;
  sim::Channel<int> funnel(&sim);
  const int kProcs = 100;
  for (int i = 0; i < kProcs; ++i) {
    sim.Spawn("p" + std::to_string(i), [&funnel, i](sim::Context& ctx) {
      ctx.Sleep(sim::Micros((i * 37) % 997));
      funnel.Push(i);
      ctx.Sleep(sim::Micros((i * 11) % 101));
      funnel.Push(i + 1000);
    });
  }
  int received = 0;
  sim.Spawn("collector", [&](sim::Context& ctx) {
    for (int i = 0; i < 2 * kProcs; ++i) {
      (void)funnel.Pop(ctx);
      ++received;
    }
  });
  sim.RunUntilIdle();
  EXPECT_EQ(received, 2 * kProcs);
}

TEST(StressSim, LongEventChain) {
  sim::Simulator sim;
  int count = 0;
  std::function<void()> step = [&] {
    if (++count < 20000) sim.After(sim::Nanos(10), step);
  };
  sim.After(0, step);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 20000);
  EXPECT_EQ(sim.Now(), sim::Nanos(10) * 19999);
}

TEST(StressSim, ManyWorkersManyMessages) {
  // 24 DSE processes on 12 simulated kernels exchanging thousands of
  // messages; checks quiescence and counter exactness at scale.
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 12;
  SimRuntime rt(opts);
  rt.registry().Register("chatter", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter = 0;
    DSE_CHECK_OK(r.ReadU64(&counter));
    for (int i = 0; i < 50; ++i) {
      DSE_CHECK_OK(t.AtomicFetchAdd(counter, 1).status());
    }
  });
  rt.registry().Register("main", [](Task& t) {
    auto counter = t.AllocOnNode(8, 5).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < 24; ++i) {
      ByteWriter w;
      w.WriteU64(counter);
      gs.push_back(t.Spawn("chatter", w.TakeBuffer()).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(counter), 24 * 50);
  });
  const SimReport report = rt.Run("main");
  EXPECT_GT(report.messages, 2000u);
}

TEST(StressThreaded, ManyTasksPerNode) {
  // 40 concurrent tasks over 4 nodes hammering one counter and the lock
  // manager simultaneously.
  ThreadedRuntime rt(ThreadedNodes(4));
  rt.registry().Register("mixed", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter = 0;
    DSE_CHECK_OK(r.ReadU64(&counter));
    for (int i = 0; i < 20; ++i) {
      DSE_CHECK_OK(t.AtomicFetchAdd(counter, 1).status());
      DSE_CHECK_OK(t.Lock(3));
      DSE_CHECK_OK(t.Unlock(3));
    }
  });
  rt.registry().Register("main", [](Task& t) {
    auto counter = t.AllocOnNode(8, 1).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < 40; ++i) {
      ByteWriter w;
      w.WriteU64(counter);
      gs.push_back(t.Spawn("mixed", w.TakeBuffer()).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(counter), 40 * 20);
  });
  rt.RunMain("main");
}

TEST(StressThreaded, RepeatedRunsDoNotLeakTasks) {
  ThreadedRuntime rt(ThreadedNodes(3));
  rt.registry().Register("w", [](Task& t) { t.Compute(1); });
  rt.registry().Register("main", [](Task& t) {
    std::vector<Gpid> gs;
    for (int i = 0; i < 9; ++i) gs.push_back(t.Spawn("w", {}).value());
    for (Gpid g : gs) (void)t.Join(g);
  });
  for (int round = 0; round < 20; ++round) {
    rt.RunMain("main");
  }
  // The process table keeps records (for ps/late joins), but no task may
  // still be marked running.
  ThreadedRuntime probe_rt(ThreadedNodes(1));
  (void)probe_rt;  // compile-time sanity only; the drain in RunMain is the check
}

TEST(StressChannel, InterleavedProducersConsumers) {
  sim::Simulator sim;
  sim::Channel<int> ch(&sim);
  std::int64_t sum = 0;
  for (int p = 0; p < 10; ++p) {
    sim.Spawn("prod" + std::to_string(p), [&ch, p](sim::Context& ctx) {
      for (int i = 0; i < 100; ++i) {
        ctx.Sleep(sim::Nanos((p * 7 + i) % 50 + 1));
        ch.Push(1);
      }
    });
  }
  for (int c = 0; c < 5; ++c) {
    sim.Spawn("cons" + std::to_string(c), [&](sim::Context& ctx) {
      for (int i = 0; i < 200; ++i) sum += ch.Pop(ctx);
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sum, 1000);
  EXPECT_TRUE(ch.empty());
}

}  // namespace
}  // namespace dse
