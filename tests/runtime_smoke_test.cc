// End-to-end smoke tests: the same little parallel programs on both
// runtimes. These are the first line of defence for the kernel protocol.
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

// Registers a main that spawns one worker per node; each worker atomically
// adds its node id + 1 into a shared counter; main checks the total.
void RegisterSumProgram(TaskRegistry& registry) {
  registry.Register("worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter_addr = 0;
    ASSERT_TRUE(r.ReadU64(&counter_addr).ok());
    t.Compute(100);
    auto old = t.AtomicFetchAdd(counter_addr, t.node() + 1);
    ASSERT_TRUE(old.ok());
    ByteWriter w;
    w.WriteI64(t.node());
    t.SetResult(w.TakeBuffer());
  });

  registry.Register("main", [](Task& t) {
    const int n = t.num_nodes();
    auto counter = t.AllocOnNode(8, 0);
    ASSERT_TRUE(counter.ok());

    std::vector<Gpid> workers;
    for (int i = 0; i < n; ++i) {
      ByteWriter w;
      w.WriteU64(*counter);
      auto gpid = t.Spawn("worker", w.TakeBuffer(), i);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    std::int64_t expect = 0;
    for (int i = 0; i < n; ++i) expect += i + 1;

    for (Gpid g : workers) {
      auto result = t.Join(g);
      ASSERT_TRUE(result.ok());
      ByteReader r(result->data(), result->size());
      std::int64_t worker_node = -1;
      ASSERT_TRUE(r.ReadI64(&worker_node).ok());
      EXPECT_EQ(worker_node, GpidNode(g));
    }

    const auto total = t.ReadValue<std::int64_t>(*counter);
    EXPECT_EQ(total, expect);
    ByteWriter w;
    w.WriteI64(total);
    t.SetResult(w.TakeBuffer());
  });
}

std::int64_t ResultValue(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  std::int64_t v = -1;
  EXPECT_TRUE(r.ReadI64(&v).ok());
  return v;
}

TEST(ThreadedRuntimeSmoke, SpawnJoinAtomicSum) {
  ThreadedRuntime rt(ThreadedNodes(4));
  RegisterSumProgram(rt.registry());
  EXPECT_EQ(ResultValue(rt.RunMain("main")), 1 + 2 + 3 + 4);
}

TEST(ThreadedRuntimeSmoke, RepeatedRuns) {
  ThreadedRuntime rt(ThreadedNodes(3));
  RegisterSumProgram(rt.registry());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ResultValue(rt.RunMain("main")), 1 + 2 + 3);
  }
}

TEST(SimRuntimeSmoke, SpawnJoinAtomicSum) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  SimRuntime rt(opts);
  RegisterSumProgram(rt.registry());
  SimReport report = rt.Run("main");
  EXPECT_EQ(ResultValue(report.main_result), 1 + 2 + 3 + 4);
  EXPECT_GT(report.virtual_seconds, 0.0);
  EXPECT_GT(report.messages, 0u);
}

TEST(SimRuntimeSmoke, Deterministic) {
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 5;
  SimRuntime rt(opts);
  RegisterSumProgram(rt.registry());
  SimReport a = rt.Run("main");
  SimReport b = rt.Run("main");
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(SimRuntimeSmoke, LegacyOrganizationIsSlower) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  SimRuntime fresh(opts);
  RegisterSumProgram(fresh.registry());
  const double unified = fresh.Run("main").virtual_seconds;

  opts.organization = OrganizationMode::kLegacyTwoProcess;
  SimRuntime legacy(opts);
  RegisterSumProgram(legacy.registry());
  const double old = legacy.Run("main").virtual_seconds;

  EXPECT_GT(old, unified);
}

TEST(SimRuntimeSmoke, ConsoleRoutedToMaster) {
  SimOptions opts;
  opts.profile = platform::AixRs6000();
  opts.num_processors = 3;
  SimRuntime rt(opts);
  rt.registry().Register("shouter", [](Task& t) {
    t.Print("hello from node " + std::to_string(t.node()));
  });
  rt.registry().Register("main", [](Task& t) {
    std::vector<Gpid> gs;
    for (int i = 0; i < t.num_nodes(); ++i) {
      gs.push_back(*t.Spawn("shouter", {}, i));
    }
    for (Gpid g : gs) ASSERT_TRUE(t.Join(g).ok());
  });
  SimReport report = rt.Run("main");
  EXPECT_EQ(report.console.size(), 3u);
}

}  // namespace
}  // namespace dse
