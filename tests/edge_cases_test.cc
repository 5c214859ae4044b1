// Edge cases across the runtime surface: degenerate sizes, single-node
// clusters, boundary alignments, misuse that must fail cleanly.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

void RunMain(int nodes, std::function<void(Task&)> fn) {
  ThreadedRuntime rt(ThreadedNodes(nodes));
  rt.registry().Register("edge.main", std::move(fn));
  rt.RunMain("edge.main");
}

TEST(EdgeCluster, SingleNodeClusterWorks) {
  RunMain(1, [](Task& t) {
    EXPECT_EQ(t.num_nodes(), 1);
    auto addr = t.AllocStriped(256, 6).value();
    std::int64_t v = 7;
    ASSERT_TRUE(t.Write(addr, &v, 8).ok());
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 7);
    EXPECT_EQ(t.AtomicFetchAdd(addr, 1).value(), 7);
    ASSERT_TRUE(t.Lock(1).ok());
    ASSERT_TRUE(t.Unlock(1).ok());
    ASSERT_TRUE(t.Barrier(1, 1).ok());
  });
}

TEST(EdgeCluster, SingleProcessorSim) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 1;
  SimRuntime rt(opts);
  rt.registry().Register("main", [](Task& t) {
    const Gpid g = t.Spawn("main2", {}, 0).value();
    (void)t.Join(g);
  });
  rt.registry().Register("main2", [](Task& t) { t.Compute(100); });
  EXPECT_GT(rt.Run("main").virtual_seconds, 0);
}

TEST(EdgeGm, ZeroLengthAccessesAreNoops) {
  RunMain(2, [](Task& t) {
    auto addr = t.AllocStriped(64, 6).value();
    EXPECT_TRUE(t.Read(addr, nullptr, 0).ok());
    EXPECT_TRUE(t.Write(addr, nullptr, 0).ok());
  });
}

TEST(EdgeGm, OneByteAccess) {
  RunMain(3, [](Task& t) {
    auto addr = t.AllocStriped(64, 6).value();
    const std::uint8_t v = 0xEE;
    ASSERT_TRUE(t.Write(addr + 63, &v, 1).ok());
    std::uint8_t out = 0;
    ASSERT_TRUE(t.Read(addr + 63, &out, 1).ok());
    EXPECT_EQ(out, 0xEE);
  });
}

TEST(EdgeGm, AccessExactlyOnStripeBoundary) {
  RunMain(4, [](Task& t) {
    auto addr = t.AllocStriped(4096, 10).value();  // 1 KiB stripes
    std::vector<std::uint8_t> data(2048, 0x42);
    // Starts exactly at stripe 1, ends exactly at stripe 3.
    ASSERT_TRUE(t.Write(addr + 1024, data.data(), data.size()).ok());
    std::vector<std::uint8_t> out(4096);
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());
    EXPECT_EQ(out[1023], 0);
    EXPECT_EQ(out[1024], 0x42);
    EXPECT_EQ(out[3071], 0x42);
    EXPECT_EQ(out[3072], 0);
  });
}

TEST(EdgeGm, AllocOnEveryNode) {
  RunMain(4, [](Task& t) {
    for (int n = 0; n < t.num_nodes(); ++n) {
      auto addr = t.AllocOnNode(32, n);
      ASSERT_TRUE(addr.ok()) << "node " << n;
      EXPECT_EQ(gmm::HomeOf(*addr, t.num_nodes()), n);
    }
  });
}

TEST(EdgeGm, AllocInvalidNodeFails) {
  RunMain(2, [](Task& t) {
    EXPECT_FALSE(t.AllocOnNode(32, 7).ok());
  });
}

TEST(EdgeGm, FreeUnknownAddressFails) {
  RunMain(2, [](Task& t) {
    EXPECT_EQ(t.Free(gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 1 << 20))
                  .code(),
              ErrorCode::kNotFound);
  });
}

TEST(EdgeGm, ManySmallAllocationsStayDisjoint) {
  RunMain(2, [](Task& t) {
    std::vector<gmm::GlobalAddr> addrs;
    for (int i = 0; i < 50; ++i) {
      addrs.push_back(t.AllocStriped(8, 6).value());
      t.WriteValue<std::int64_t>(addrs.back(), i);
    }
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(t.ReadValue<std::int64_t>(addrs[static_cast<size_t>(i)]), i);
    }
  });
}

TEST(EdgeSync, ManyDistinctLocks) {
  RunMain(3, [](Task& t) {
    for (std::uint64_t id = 0; id < 30; ++id) {
      ASSERT_TRUE(t.Lock(id).ok());
    }
    for (std::uint64_t id = 0; id < 30; ++id) {
      ASSERT_TRUE(t.Unlock(id).ok());
    }
    // All free again.
    ASSERT_TRUE(t.Lock(15).ok());
    ASSERT_TRUE(t.Unlock(15).ok());
  });
}

TEST(EdgeSync, RecursiveSpawnChain) {
  // A chain of tasks each spawning the next: exercises deep join nesting.
  ThreadedRuntime rt(ThreadedNodes(3));
  rt.registry().Register("link", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::int32_t depth = 0;
    ASSERT_TRUE(r.ReadI32(&depth).ok());
    if (depth > 0) {
      ByteWriter w;
      w.WriteI32(depth - 1);
      const Gpid g = t.Spawn("link", w.TakeBuffer()).value();
      const auto res = t.Join(g).value();
      ByteReader rr(res.data(), res.size());
      std::int64_t below = 0;
      ASSERT_TRUE(rr.ReadI64(&below).ok());
      ByteWriter out;
      out.WriteI64(below + 1);
      t.SetResult(out.TakeBuffer());
    } else {
      ByteWriter out;
      out.WriteI64(0);
      t.SetResult(out.TakeBuffer());
    }
  });
  rt.registry().Register("edge.main", [](Task& t) {
    ByteWriter w;
    w.WriteI32(10);
    const Gpid g = t.Spawn("link", w.TakeBuffer()).value();
    const auto res = t.Join(g).value();
    ByteReader r(res.data(), res.size());
    std::int64_t count = 0;
    ASSERT_TRUE(r.ReadI64(&count).ok());
    EXPECT_EQ(count, 10);
  });
  rt.RunMain("edge.main");
}

TEST(EdgeSsi, EmptyTaskArgAndResult) {
  ThreadedRuntime rt(ThreadedNodes(2));
  rt.registry().Register("noop", [](Task& t) {
    EXPECT_TRUE(t.arg().empty());
  });
  rt.registry().Register("edge.main", [](Task& t) {
    const Gpid g = t.Spawn("noop", {}, 1).value();
    EXPECT_TRUE(t.Join(g).value().empty());
  });
  rt.RunMain("edge.main");
}

TEST(EdgeSsi, LongTaskNamesAndArgs) {
  ThreadedRuntime rt(ThreadedNodes(2));
  const std::string name(200, 'x');
  rt.registry().Register(name, [](Task& t) {
    EXPECT_EQ(t.arg().size(), 100000u);
  });
  rt.registry().Register("edge.main", [name](Task& t) {
    const Gpid g =
        t.Spawn(name, std::vector<std::uint8_t>(100000, 0xAA), 1).value();
    (void)t.Join(g);
  });
  rt.RunMain("edge.main");
}

TEST(EdgeSim, MainWithNoSpawns) {
  SimOptions opts;
  opts.profile = platform::AixRs6000();
  opts.num_processors = 4;
  SimRuntime rt(opts);
  rt.registry().Register("main", [](Task&) {});
  const SimReport report = rt.Run("main");
  // Only the shutdown broadcast moved.
  EXPECT_LE(report.messages, 8u);
}

TEST(EdgeSim, ComputeZeroUnits) {
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 1;
  SimRuntime rt(opts);
  rt.registry().Register("main", [](Task& t) { t.Compute(0); });
  EXPECT_GE(rt.Run("main").virtual_seconds, 0.0);
}

TEST(EdgeResult, ResultBytesRoundTripExactly) {
  ThreadedRuntime rt(ThreadedNodes(2));
  std::vector<std::uint8_t> blob(3333);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 31);
  }
  rt.registry().Register("emitter", [blob](Task& t) { t.SetResult(blob); });
  rt.registry().Register("edge.main", [blob](Task& t) {
    const Gpid g = t.Spawn("emitter", {}, 1).value();
    EXPECT_EQ(t.Join(g).value(), blob);
  });
  rt.RunMain("edge.main");
}

}  // namespace
}  // namespace dse
