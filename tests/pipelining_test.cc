// Split-transaction (pipelined) transfers: identical results, fewer
// serialized round trips, measurably less virtual time in the simulator.
#include <gtest/gtest.h>

#include "apps/gauss/gauss.h"
#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

TEST(Pipelining, ThreadedResultsIdentical) {
  auto run = [](bool pipelined) {
    ThreadedOptions opts = ThreadedNodes(4);
    opts.pipelined_transfers = pipelined;
    ThreadedRuntime rt(opts);
    rt.registry().Register("main", [](Task& t) {
      auto addr = t.AllocStriped(8192, 6).value();  // 128 chunks
      std::vector<std::uint8_t> data(8192);
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i * 13);
      }
      ASSERT_TRUE(t.Write(addr, data.data(), data.size()).ok());
      std::vector<std::uint8_t> out(8192);
      ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());
      EXPECT_EQ(out, data);
      ByteWriter w;
      w.WriteU64(apps::gauss::Checksum(
          std::vector<double>(reinterpret_cast<double*>(out.data()),
                              reinterpret_cast<double*>(out.data()) + 1024)));
      t.SetResult(w.TakeBuffer());
    });
    return rt.RunMain("main");
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Pipelining, ThreadedWithCacheStillCoherent) {
  ThreadedOptions opts = ThreadedNodes(3);
  opts.read_cache = true;
  opts.pipelined_transfers = true;
  ThreadedRuntime rt(opts);
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocStriped(3072, 10).value();  // 3 blocks, 3 homes
    std::vector<std::uint8_t> data(3072, 0x3C);
    ASSERT_TRUE(t.Write(addr, data.data(), data.size()).ok());
    std::vector<std::uint8_t> out(3072);
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());  // fills cache
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());  // cache hits
    EXPECT_EQ(out, data);
  });
  rt.RunMain("main");
}

TEST(Pipelining, SimResultsIdentical) {
  auto run = [](bool pipelined) {
    SimOptions opts;
    opts.profile = platform::SunOsSparc();
    opts.num_processors = 6;
    opts.pipelined_transfers = pipelined;
    SimRuntime rt(opts);
    apps::gauss::Register(rt.registry());
    apps::gauss::Config c{.n = 300, .sweeps = 6, .workers = 6};
    return rt.Run(apps::gauss::kMainTask, apps::gauss::MakeArg(c));
  };
  const SimReport serial = run(false);
  const SimReport pipelined = run(true);
  EXPECT_EQ(serial.main_result, pipelined.main_result);
  EXPECT_EQ(serial.messages, pipelined.messages);
}

TEST(Pipelining, HidesLatencyWithoutContention) {
  // One reader pulling many chunks from distinct homes over a switched
  // medium: round trips genuinely overlap, so pipelining must win. (On the
  // shared bus with many bursting workers the picture is mixed — bursts
  // collide — which bench_ablation_pipelining quantifies.)
  auto run = [](bool pipelined) {
    SimOptions opts;
    opts.profile = platform::SunOsSparc();
    opts.num_processors = 6;
    opts.medium = MediumKind::kSwitched;
    opts.pipelined_transfers = pipelined;
    SimRuntime rt(opts);
    rt.registry().Register("main", [](Task& t) {
      auto addr = t.AllocStriped(6 * 1024, 10).value();  // 6 chunks, 6 homes
      std::vector<std::uint8_t> buf(6 * 1024);
      for (int i = 0; i < 20; ++i) {
        DSE_CHECK_OK(t.Read(addr, buf.data(), buf.size()));
      }
    });
    return rt.Run("main").virtual_seconds;
  };
  const double serial = run(false);
  const double pipelined = run(true);
  EXPECT_LT(pipelined, 0.75 * serial);
}

TEST(Pipelining, SingleChunkAccessUnaffected) {
  // One-chunk accesses take the plain path; the flag must not change them.
  auto run = [](bool pipelined) {
    SimOptions opts;
    opts.profile = platform::LinuxPentiumII();
    opts.num_processors = 2;
    opts.pipelined_transfers = pipelined;
    SimRuntime rt(opts);
    rt.registry().Register("main", [](Task& t) {
      auto addr = t.AllocOnNode(64, 1).value();
      std::uint8_t buf[64] = {9};
      (void)t.Write(addr, buf, sizeof(buf));
      (void)t.Read(addr, buf, sizeof(buf));
    });
    return rt.Run("main").virtual_seconds;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dse
