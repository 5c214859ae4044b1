// ProcessRuntime over real TCP: several "node processes" hosted on threads
// of this test binary (distinct endpoints, same semantics as separate UNIX
// processes — the tcp_cluster example exercises the fork/exec shape).
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/process_runtime.h"
#include "osal/socket.h"

namespace dse {
namespace {

std::vector<net::TcpNodeAddr> ReservePorts(int n) {
  std::vector<net::TcpNodeAddr> nodes;
  std::vector<osal::TcpListener> holders;
  for (int i = 0; i < n; ++i) {
    holders.push_back(osal::TcpListener::Listen(0).value());
    nodes.push_back(net::TcpNodeAddr{"127.0.0.1", holders.back().port()});
  }
  return nodes;
}

void RegisterCluster(TaskRegistry& registry) {
  registry.Register("worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t cell = 0;
    DSE_CHECK_OK(r.ReadU64(&cell));
    (void)t.AtomicFetchAdd(cell, t.node() + 1);
    ByteWriter w;
    w.WriteI32(t.node());
    t.SetResult(w.TakeBuffer());
  });
  registry.Register("main", [](Task& t) {
    auto cell = t.AllocOnNode(8, 1).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < t.num_nodes(); ++i) {
      ByteWriter w;
      w.WriteU64(cell);
      gs.push_back(t.Spawn("worker", w.TakeBuffer(), i).value());
    }
    for (Gpid g : gs) (void)t.Join(g);
    ByteWriter w;
    w.WriteI64(t.ReadValue<std::int64_t>(cell));
    t.SetResult(w.TakeBuffer());
  });
}

TEST(ProcessRuntime, ThreeNodeClusterOverTcp) {
  const int n = 3;
  const auto nodes = ReservePorts(n);

  std::vector<std::thread> workers;
  for (int i = 1; i < n; ++i) {
    workers.emplace_back([&, i] {
      auto rt = ProcessRuntime::Create(i, nodes).value();
      RegisterCluster(rt->registry());
      rt->ServeUntilShutdown();
    });
  }

  auto master = ProcessRuntime::Create(0, nodes).value();
  RegisterCluster(master->registry());
  const auto result = master->RunMainAndShutdown("main", {});
  for (auto& w : workers) w.join();

  ByteReader r(result.data(), result.size());
  std::int64_t sum = 0;
  ASSERT_TRUE(r.ReadI64(&sum).ok());
  EXPECT_EQ(sum, 1 + 2 + 3);
}

TEST(ProcessRuntime, ConsoleReachesMaster) {
  const int n = 2;
  const auto nodes = ReservePorts(n);
  std::thread worker([&] {
    auto rt = ProcessRuntime::Create(1, nodes).value();
    rt->registry().Register("shout", [](Task& t) { t.Print("from afar"); });
    rt->ServeUntilShutdown();
  });

  auto master = ProcessRuntime::Create(0, nodes).value();
  master->registry().Register("shout", [](Task& t) { t.Print("unused"); });
  master->registry().Register("main", [](Task& t) {
    const Gpid g = t.Spawn("shout", {}, 1).value();
    (void)t.Join(g);
  });
  (void)master->RunMainAndShutdown("main", {});
  worker.join();

  ASSERT_EQ(master->console().size(), 1u);
  EXPECT_NE(master->console()[0].find("from afar"), std::string::npos);
}

TEST(ProcessRuntime, CoherentCachingOverTcp) {
  // The full coherence protocol across real TCP endpoints: a remote write
  // must invalidate this process's cached copy.
  const int n = 2;
  const auto nodes = ReservePorts(n);
  ProcessOptions cached;
  cached.read_cache = true;
  std::thread worker([&] {
    auto rt = ProcessRuntime::Create(1, nodes, cached).value();
    rt->registry().Register("writer", [](Task& t) {
      ByteReader r(t.arg().data(), t.arg().size());
      std::uint64_t addr = 0;
      DSE_CHECK_OK(r.ReadU64(&addr));
      t.WriteValue<std::int64_t>(addr, 999);
    });
    rt->ServeUntilShutdown();
  });

  auto master = ProcessRuntime::Create(0, nodes, cached).value();
  master->registry().Register("writer", [](Task&) {});
  master->registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, 1).value();
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 0);  // cached now
    ByteWriter w;
    w.WriteU64(addr);
    const Gpid g = t.Spawn("writer", w.TakeBuffer(), 1).value();
    (void)t.Join(g);
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 999);  // invalidated + refetched
  });
  (void)master->RunMainAndShutdown("main", {});
  worker.join();
}

TEST(ProcessRuntime, PipelinedTransfersOverTcp) {
  const int n = 3;
  const auto nodes = ReservePorts(n);
  ProcessOptions pipelined;
  pipelined.pipelined_transfers = true;
  std::vector<std::thread> workers;
  for (int i = 1; i < n; ++i) {
    workers.emplace_back([&, i] {
      auto rt = ProcessRuntime::Create(i, nodes, pipelined).value();
      RegisterCluster(rt->registry());
      rt->ServeUntilShutdown();
    });
  }
  auto master = ProcessRuntime::Create(0, nodes, pipelined).value();
  master->registry().Register("main", [](Task& t) {
    auto addr = t.AllocStriped(6 * 1024, 10).value();  // chunks on 3 homes
    std::vector<std::uint8_t> data(6 * 1024);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 17);
    }
    ASSERT_TRUE(t.Write(addr, data.data(), data.size()).ok());
    std::vector<std::uint8_t> out(data.size());
    ASSERT_TRUE(t.Read(addr, out.data(), out.size()).ok());
    EXPECT_EQ(out, data);
  });
  (void)master->RunMainAndShutdown("main", {});
  for (auto& w : workers) w.join();
}

TEST(ProcessRuntime, SchedulerServesJobsOverTcp) {
  // The serving front door over the TCP mesh: node 0 hosts the scheduler
  // and a submitted two-member gang runs to completion.
  const int n = 2;
  const auto nodes = ReservePorts(n);
  ProcessOptions serving;
  serving.sched.enabled = true;
  const auto register_job = [](TaskRegistry& registry) {
    registry.Register("job", [](Task& t) {
      ByteReader r(t.arg().data(), t.arg().size());
      std::uint64_t cell = 0;
      DSE_CHECK_OK(r.ReadU64(&cell));
      (void)t.AtomicFetchAdd(cell, 1);
    });
  };
  std::thread worker([&] {
    auto rt = ProcessRuntime::Create(1, nodes, serving).value();
    register_job(rt->registry());
    rt->ServeUntilShutdown();
  });

  auto master = ProcessRuntime::Create(0, nodes, serving).value();
  register_job(master->registry());
  master->registry().Register("main", [](Task& t) {
    const auto cell = t.AllocOnNode(8, 1).value();
    ByteWriter w;
    w.WriteU64(cell);
    ASSERT_TRUE(t.SubmitJob(/*tenant=*/0, "job", w.TakeBuffer(), 2).ok());
    std::map<std::string, std::uint64_t> ledger;
    for (int polls = 0;
         ledger["sched.completed"] + ledger["sched.failed"] < 1; ++polls) {
      ASSERT_LT(polls, 10000) << "the job never finished";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto stat = t.SchedStat();
      ASSERT_TRUE(stat.ok());
      ledger = *stat;
    }
    EXPECT_EQ(ledger["sched.completed"], 1u);
    EXPECT_EQ(t.ReadValue<std::int64_t>(cell), 2);  // both members ran
  });
  (void)master->RunMainAndShutdown("main", {});
  worker.join();
}

TEST(ProcessRuntime, RendezvousTimesOutWithoutPeers) {
  const auto nodes = ReservePorts(3);
  // Node 2 initiates to 0 and 1, which never come up.
  ProcessOptions impatient;
  impatient.connect_timeout_ms = 200;
  const auto rt = ProcessRuntime::Create(2, nodes, impatient);
  EXPECT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace dse
