// SSI control plane: the SsiServices facade (name service, load query,
// console routing, ps, stats query), cluster-stats aggregation/rendering,
// and the Runtime/Task-level ClusterStats() views on both the threaded and
// the simulated runtime.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/pm/process_table.h"
#include "dse/sim_runtime.h"
#include "dse/ssi/services.h"
#include "dse/ssi/stats.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "simnet/ethernet.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

proto::Envelope Env(proto::Body body, std::uint64_t rid = 1, NodeId src = 2) {
  proto::Envelope env;
  env.req_id = rid;
  env.src_node = src;
  env.body = std::move(body);
  return env;
}

std::uint64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// --- SsiServices facade -------------------------------------------------------

TEST(SsiServices, HandlesExactlyTheSsiTypes) {
  using proto::MsgType;
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kPsReq));
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kConsoleOut));
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kNamePublish));
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kNameLookup));
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kLoadReq));
  EXPECT_TRUE(ssi::SsiServices::Handles(MsgType::kStatsReq));
  EXPECT_FALSE(ssi::SsiServices::Handles(MsgType::kReadReq));
  EXPECT_FALSE(ssi::SsiServices::Handles(MsgType::kSpawnReq));
  EXPECT_FALSE(ssi::SsiServices::Handles(MsgType::kShutdown));
  EXPECT_FALSE(ssi::SsiServices::Handles(MsgType::kStatsResp));
}

TEST(SsiServices, NameFirstPublishWinsRepublishRejected) {
  pm::ProcessTable table(0);
  ssi::SsiServices svc(0, &table, nullptr);

  auto fx = svc.Handle(Env(proto::NamePublish{"queue", 111}, 5, 3));
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out[0].dst, 3);
  EXPECT_EQ(fx.out[0].env.req_id, 5u);
  EXPECT_EQ(std::get<proto::NameAck>(fx.out[0].env.body).error, 0);
  EXPECT_EQ(svc.name_count(), 1u);

  // Republish with a different value: rejected, original value survives.
  fx = svc.Handle(Env(proto::NamePublish{"queue", 222}));
  EXPECT_EQ(std::get<proto::NameAck>(fx.out[0].env.body).error,
            static_cast<std::uint8_t>(ErrorCode::kAlreadyExists));
  EXPECT_EQ(svc.name_count(), 1u);

  fx = svc.Handle(Env(proto::NameLookup{"queue"}));
  const auto& resp = std::get<proto::NameResp>(fx.out[0].env.body);
  EXPECT_EQ(resp.error, 0);
  EXPECT_EQ(resp.value, 111u);
}

TEST(SsiServices, LookupMissReturnsNotFound) {
  pm::ProcessTable table(0);
  ssi::SsiServices svc(0, &table, nullptr);
  const auto fx = svc.Handle(Env(proto::NameLookup{"no.such.name"}));
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(std::get<proto::NameResp>(fx.out[0].env.body).error,
            static_cast<std::uint8_t>(ErrorCode::kNotFound));
}

TEST(SsiServices, NonMasterRejectsNameOps) {
  pm::ProcessTable table(1);
  ssi::SsiServices svc(1, &table, nullptr);  // not the SSI master
  auto fx = svc.Handle(Env(proto::NamePublish{"x", 1}));
  EXPECT_EQ(std::get<proto::NameAck>(fx.out[0].env.body).error,
            static_cast<std::uint8_t>(ErrorCode::kFailedPrecondition));
  fx = svc.Handle(Env(proto::NameLookup{"x"}));
  EXPECT_EQ(std::get<proto::NameResp>(fx.out[0].env.body).error,
            static_cast<std::uint8_t>(ErrorCode::kFailedPrecondition));
}

TEST(SsiServices, LoadReflectsRunningTasks) {
  pm::ProcessTable table(2);
  const Gpid a = table.Create("running");
  const Gpid b = table.Create("done");
  (void)a;
  (void)table.MarkDone(b, {});
  ssi::SsiServices svc(2, &table, nullptr);
  const auto fx = svc.Handle(Env(proto::LoadReq{}));
  EXPECT_EQ(std::get<proto::LoadResp>(fx.out[0].env.body).running_tasks, 1u);
}

TEST(SsiServices, StatsQueryReturnsCallbackSnapshot) {
  pm::ProcessTable table(0);
  ssi::SsiServices svc(0, &table,
                       [] { return MetricsSnapshot{{"dsm.reads", 7}}; });
  const auto fx = svc.Handle(Env(proto::StatsReq{}, 9, 1));
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out[0].dst, 1);
  EXPECT_EQ(fx.out[0].env.req_id, 9u);
  const auto& resp = std::get<proto::StatsResp>(fx.out[0].env.body);
  EXPECT_EQ(Get(resp.counters, "dsm.reads"), 7u);
}

TEST(SsiServices, ConsoleLineCarriesGpid) {
  pm::ProcessTable table(0);
  ssi::SsiServices svc(0, &table, nullptr);
  const auto fx = svc.Handle(Env(proto::ConsoleOut{MakeGpid(2, 5), "hi"}));
  EXPECT_TRUE(fx.out.empty());
  ASSERT_EQ(fx.console.size(), 1u);
  EXPECT_EQ(fx.console[0], "[2.5] hi");
}

// --- Aggregation and rendering ------------------------------------------------

TEST(SsiStats, AggregateSumsAcrossNodes) {
  const std::vector<MetricsSnapshot> per_node = {
      {{"a", 1}, {"b", 10}}, {{"a", 2}}, {{"c", 5}}};
  const MetricsSnapshot total = ssi::Aggregate(per_node);
  EXPECT_EQ(Get(total, "a"), 3u);
  EXPECT_EQ(Get(total, "b"), 10u);
  EXPECT_EQ(Get(total, "c"), 5u);
  EXPECT_EQ(total.size(), 3u);
}

TEST(SsiStats, TableListsNodesAndTotals) {
  const std::vector<MetricsSnapshot> per_node = {{{"dsm.reads", 1}},
                                                 {{"dsm.reads", 2}}};
  const std::string table =
      ssi::FormatStatsTable(per_node, {{"bus.collisions", 9}});
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("node0"), std::string::npos);
  EXPECT_NE(table.find("node1"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("dsm.reads"), std::string::npos);
  // Cluster-only counters render with no owning-node cells.
  EXPECT_NE(table.find("bus.collisions"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);
  EXPECT_NE(table.find("9"), std::string::npos);
}

TEST(SsiStats, JsonHasNodesAndClusterSections) {
  const std::string json =
      ssi::StatsToJson({{{"a", 1}}, {{"a", 2}}}, {{"bus.frames", 4}});
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"a\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bus.frames\": 4"), std::string::npos);
}

TEST(SsiStats, CsvIsLongFormatWithClusterRows) {
  const std::string csv = ssi::StatsToCsv({{{"a", 1}}, {{"a", 2}}});
  EXPECT_NE(csv.find("counter,node,value\n"), std::string::npos);
  EXPECT_NE(csv.find("a,0,1\n"), std::string::npos);
  EXPECT_NE(csv.find("a,1,2\n"), std::string::npos);
  EXPECT_NE(csv.find("a,cluster,3\n"), std::string::npos);
}

TEST(SsiStats, PsTableShowsStateAndTask) {
  std::vector<proto::PsEntry> entries;
  entries.push_back(proto::PsEntry{MakeGpid(0, 1), "main", 0});
  entries.push_back(proto::PsEntry{MakeGpid(3, 9), "worker", 1});
  const std::string table = ssi::FormatPsTable(entries);
  EXPECT_NE(table.find("GPID"), std::string::npos);
  EXPECT_NE(table.find("0.1"), std::string::npos);
  EXPECT_NE(table.find("running"), std::string::npos);
  EXPECT_NE(table.find("3.9"), std::string::npos);
  EXPECT_NE(table.find("done"), std::string::npos);
  EXPECT_NE(table.find("worker"), std::string::npos);
}

TEST(SsiStats, MediumCountersSkipZeroesAndCarryKindPrefix) {
  simnet::MediumStats ms;
  ms.frames = 2;
  ms.wire_bytes = 100;
  const MetricsSnapshot counters = simnet::MediumStatsToCounters(ms, "bus");
  EXPECT_EQ(Get(counters, "bus.frames"), 2u);
  EXPECT_EQ(Get(counters, "bus.wire_bytes"), 100u);
  EXPECT_EQ(counters.count("bus.collisions"), 0u);
  // frames/busy_us/queueing_us are always reported (satellite: per-medium
  // utilization must be visible even when zero), rarer counters only when
  // nonzero.
  EXPECT_EQ(counters.count("bus.busy_us"), 1u);
  EXPECT_EQ(counters.count("bus.queueing_us"), 1u);
  EXPECT_EQ(counters.count("bus.credit_stalls"), 0u);
  const MetricsSnapshot sw = simnet::MediumStatsToCounters(ms, "switched");
  EXPECT_EQ(Get(sw, "switched.frames"), 2u);
}

// --- Cluster-wide stats over the StatsReq/StatsResp protocol ------------------

// Asserts the cluster aggregate equals the per-node sums for every counter.
void ExpectAggregateMatchesSums(const std::vector<MetricsSnapshot>& per_node) {
  const MetricsSnapshot cluster = ssi::Aggregate(per_node);
  for (const auto& [name, total] : cluster) {
    std::uint64_t sum = 0;
    for (const auto& snap : per_node) sum += Get(snap, name);
    EXPECT_EQ(total, sum) << name;
  }
}

TEST(SsiClusterStats, ThreadedTaskViewAggregatesPerNodeSums) {
  ThreadedRuntime rt(ThreadedNodes(3));
  rt.registry().Register("worker", [](Task& t) {
    ASSERT_TRUE(t.Lock(7).ok());
    ASSERT_TRUE(t.Unlock(7).ok());
  });
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocStriped(4096, 6).value();  // stripes over all 3 homes
    std::vector<std::uint8_t> buf(4096, 1);
    ASSERT_TRUE(t.Write(addr, buf.data(), buf.size()).ok());
    ASSERT_TRUE(t.Read(addr, buf.data(), buf.size()).ok());
    ASSERT_TRUE(t.Barrier(1, 1).ok());
    const Gpid g = t.Spawn("worker", {}, 1).value();
    ASSERT_TRUE(t.Join(g).ok());

    const auto per_node = t.ClusterStats().value();
    ASSERT_EQ(per_node.size(), 3u);
    ExpectAggregateMatchesSums(per_node);
    const MetricsSnapshot cluster = ssi::Aggregate(per_node);
    EXPECT_GE(Get(cluster, "dsm.reads"), 1u);
    EXPECT_GE(Get(cluster, "dsm.writes"), 1u);
    EXPECT_GE(Get(cluster, "dsm.home_reads"), 1u);
    EXPECT_GE(Get(cluster, "sync.lock_acquires"), 1u);
    EXPECT_GE(Get(cluster, "sync.barriers"), 1u);
    EXPECT_EQ(Get(cluster, "pm.spawns"), 1u);
    EXPECT_GE(Get(cluster, "msg.sent.ReadReq"), 1u);
    EXPECT_GE(Get(cluster, "msg.recv.WriteReq"), 1u);
    EXPECT_GE(Get(cluster, "net.msgs_sent"), 1u);
    EXPECT_GE(Get(cluster, "net.bytes_sent"), 1u);
  });
  rt.RunMain("main");

  // Quiescent runtime-level view agrees with the in-run protocol view.
  const auto per_node = rt.ClusterStats();
  ASSERT_EQ(per_node.size(), 3u);
  ExpectAggregateMatchesSums(per_node);
  const MetricsSnapshot cluster = ssi::Aggregate(per_node);
  EXPECT_EQ(Get(cluster, "pm.spawns"), 1u);
  EXPECT_GE(Get(cluster, "msg.sent.StatsReq"), 3u);  // the in-run gather
  // The endpoint-level wire counters cross-check the kernel's own counting.
  EXPECT_GE(Get(cluster, "wire.msgs_sent"), Get(cluster, "net.msgs_sent"));
  // Histograms merged across nodes saw every sent payload.
  const auto hist = rt.ClusterHistograms();
  const auto it = hist.find("net.sent_bytes");
  ASSERT_NE(it, hist.end());
  EXPECT_EQ(it->second.count(), Get(cluster, "net.msgs_sent"));
}

TEST(SsiClusterStats, SimTaskViewAggregatesPerNodeSums) {
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 3;
  SimRuntime rt(opts);
  rt.registry().Register("worker", [](Task& t) { t.Compute(500); });
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocStriped(1024, 6).value();
    const std::int64_t v = 5;
    t.WriteValue(addr, v);
    EXPECT_EQ(t.ReadValue<std::int64_t>(addr), 5);
    const Gpid g = t.Spawn("worker", {}, 2).value();
    ASSERT_TRUE(t.Join(g).ok());

    const auto per_node = t.ClusterStats().value();
    ASSERT_EQ(per_node.size(), 3u);
    ExpectAggregateMatchesSums(per_node);
    const MetricsSnapshot cluster = ssi::Aggregate(per_node);
    EXPECT_GE(Get(cluster, "dsm.reads"), 1u);
    EXPECT_EQ(Get(cluster, "pm.spawns"), 1u);
    EXPECT_GE(Get(cluster, "msg.sent.SpawnReq"), 1u);
  });
  const SimReport report = rt.Run("main");
  ASSERT_EQ(report.node_stats.size(), 3u);
  ExpectAggregateMatchesSums(report.node_stats);
  EXPECT_EQ(report.node_stats, rt.ClusterStats());
  EXPECT_GE(Get(ssi::Aggregate(report.node_stats), "pm.spawns"), 1u);
}

TEST(SsiClusterStats, SimCountersDeterministicRunToRun) {
  const auto run = [] {
    SimOptions opts;
    opts.profile = platform::SunOsSparc();
    opts.num_processors = 4;
    SimRuntime rt(opts);
    rt.registry().Register("adder", [](Task& t) {
      ByteReader r(t.arg().data(), t.arg().size());
      std::uint64_t counter = 0;
      ASSERT_TRUE(r.ReadU64(&counter).ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(t.AtomicFetchAdd(counter, 1).ok());
      }
      ASSERT_TRUE(t.Barrier(3, 4).ok());
    });
    rt.registry().Register("main", [](Task& t) {
      auto counter = t.AllocOnNode(8, 1).value();
      std::vector<Gpid> gs;
      for (int i = 0; i < 3; ++i) {
        ByteWriter w;
        w.WriteU64(counter);
        gs.push_back(t.Spawn("adder", w.TakeBuffer(), i + 1).value());
      }
      ASSERT_TRUE(t.Barrier(3, 4).ok());
      for (Gpid g : gs) ASSERT_TRUE(t.Join(g).ok());
      EXPECT_EQ(t.ReadValue<std::int64_t>(counter), 30);
    });
    return rt.Run("main");
  };

  const SimReport a = run();
  const SimReport b = run();
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.medium_counters, b.medium_counters);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(ssi::FormatPsTable(a.ps), ssi::FormatPsTable(b.ps));
  // A real workload ran: the snapshots are not trivially empty.
  EXPECT_GE(Get(ssi::Aggregate(a.node_stats), "dsm.home_atomics"), 30u);
}

// --- Load query / least-loaded placement under churn --------------------------

TEST(SsiLoadQuery, LeastLoadedPlacementUnderConcurrentSpawnExit) {
  ThreadedRuntime rt(ThreadedNodes(3));
  rt.registry().Register("leaf", [](Task& t) { t.Compute(10); });
  rt.registry().Register("churn", [](Task& t) {
    for (int i = 0; i < 5; ++i) {
      auto g = t.Spawn("leaf", {}, kLeastLoaded);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      ASSERT_TRUE(t.Join(*g).ok());
    }
  });
  rt.registry().Register("main", [](Task& t) {
    std::vector<Gpid> gs;
    for (int i = 0; i < 3; ++i) {
      gs.push_back(t.Spawn("churn", {}, i).value());
    }
    for (Gpid g : gs) ASSERT_TRUE(t.Join(g).ok());
  });
  rt.RunMain("main");

  const MetricsSnapshot cluster = ssi::Aggregate(rt.ClusterStats());
  EXPECT_EQ(Get(cluster, "pm.spawns"), 18u);  // 3 churners + 15 leaves
  // Every least-loaded spawn polled all three kernels.
  EXPECT_EQ(Get(cluster, "msg.sent.LoadReq"), 45u);
  EXPECT_EQ(Get(cluster, "pm.spawn_rejects"), 0u);
  // All 19 processes (incl. main) appear in the SSI-wide ps, all done.
  const auto ps = rt.Ps();
  EXPECT_EQ(ps.size(), 19u);
  for (const auto& e : ps) EXPECT_EQ(e.state, 1);
}

TEST(SsiSpawn, UnknownTaskIsInvalidArgumentOnSim) {
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 2;
  SimRuntime rt(opts);
  rt.registry().Register("main", [](Task& t) {
    auto r = t.Spawn("no.such.task", {}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  });
  const SimReport report = rt.Run("main");
  EXPECT_EQ(Get(ssi::Aggregate(report.node_stats), "pm.spawn_rejects"), 1u);
}

}  // namespace
}  // namespace dse
