// Routed-fabric suite (src/simnet/fabric): topology grammar and routing
// tables, credit-based flow control on the medium, deterministic replay of
// whole simulations on every topology family, and fabric link faults —
// reroute-without-eviction when the graph stays connected, epoch-fenced
// eviction + promotion when a machine is cut off, and rejoin after heal.
#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/gauss/gauss.h"
#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "net/fault.h"
#include "platform/profile.h"
#include "sim/simulator.h"
#include "simnet/ethernet.h"
#include "simnet/fabric/fabric.h"
#include "simnet/fabric/topology.h"
#include "tests/message_faults.h"

namespace dse {
namespace {

using simnet::MediumParams;
using simnet::fabric::AutoTopologySpec;
using simnet::fabric::FabricOptions;
using simnet::fabric::ParseTopologySpec;
using simnet::fabric::RoutedFabricMedium;
using simnet::fabric::Topology;
using simnet::fabric::TopologyKind;
using simnet::fabric::TopologySpec;

Topology MustBuild(const std::string& text, int machines,
                   std::uint64_t seed = 1) {
  auto spec = ParseTopologySpec(text, machines);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto topo = Topology::Build(*spec, machines, seed);
  EXPECT_TRUE(topo.ok()) << topo.status().ToString();
  return *topo;
}

// --- Topology grammar -------------------------------------------------------

TEST(TopologyGrammar, ParsesEveryKind) {
  EXPECT_EQ(ToString(*ParseTopologySpec("ring:8", 8)), "ring:8");
  EXPECT_EQ(ToString(*ParseTopologySpec("mesh:4x4", 16)), "mesh:4x4");
  EXPECT_EQ(ToString(*ParseTopologySpec("torus:8x8", 64)), "torus:8x8");
  EXPECT_EQ(ToString(*ParseTopologySpec("fattree:4", 16)), "fattree:4");
}

TEST(TopologyGrammar, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTopologySpec("ring:1", 2).ok());
  EXPECT_FALSE(ParseTopologySpec("ring:x", 2).ok());
  EXPECT_FALSE(ParseTopologySpec("ring:-4", 2).ok());
  EXPECT_FALSE(ParseTopologySpec("mesh:4", 4).ok());
  EXPECT_FALSE(ParseTopologySpec("mesh:1x4", 4).ok());
  EXPECT_FALSE(ParseTopologySpec("fattree:3", 4).ok());   // odd arity
  EXPECT_FALSE(ParseTopologySpec("fattree:2", 4).ok());   // capacity 2 < 4
  EXPECT_FALSE(ParseTopologySpec("hypercube:4", 4).ok());
  EXPECT_FALSE(ParseTopologySpec("torus", 4).ok());
}

TEST(TopologyGrammar, AutoPicksNearSquareTorusElseRing) {
  EXPECT_EQ(ToString(AutoTopologySpec(6)), "ring:6");    // no 3-divisor split
  EXPECT_EQ(ToString(AutoTopologySpec(9)), "torus:3x3");
  EXPECT_EQ(ToString(AutoTopologySpec(64)), "torus:8x8");
  EXPECT_EQ(ToString(AutoTopologySpec(1024)), "torus:32x32");
  EXPECT_EQ(ToString(AutoTopologySpec(2)), "ring:2");
}

// --- Routing tables ---------------------------------------------------------

TEST(TopologyRoutes, RingUsesShortestArc) {
  const Topology t = MustBuild("ring:8", 8);
  EXPECT_EQ(t.HopCount(0, 0), 0);
  EXPECT_EQ(t.HopCount(0, 1), 1);
  EXPECT_EQ(t.HopCount(0, 4), 4);  // antipode
  EXPECT_EQ(t.HopCount(0, 7), 1);  // via the wraparound link
  EXPECT_TRUE(t.NeedsDateline());
}

TEST(TopologyRoutes, MeshAndTorusAreDimensionOrderMinimal) {
  const Topology mesh = MustBuild("mesh:4x4", 16);
  EXPECT_EQ(mesh.HopCount(0, 15), 6);  // (0,0) -> (3,3), no wrap
  EXPECT_EQ(mesh.HopCount(0, 3), 3);
  EXPECT_FALSE(mesh.NeedsDateline());

  const Topology torus = MustBuild("torus:4x4", 16);
  EXPECT_EQ(torus.HopCount(0, 15), 2);  // one wrap hop per dimension
  EXPECT_EQ(torus.HopCount(0, 3), 1);
  EXPECT_EQ(torus.HopCount(0, 10), 4);  // (0,0) -> (2,2): 2+2, no shortcut
  EXPECT_TRUE(torus.NeedsDateline());
}

TEST(TopologyRoutes, FatTreeHopsMatchTreeLevels) {
  const Topology t = MustBuild("fattree:4", 16);
  EXPECT_EQ(t.AttachRouter(0), 0);
  EXPECT_EQ(t.AttachRouter(1), 0);   // same edge switch
  EXPECT_EQ(t.HopCount(0, 1), 0);    // edge-local: no router->router link
  EXPECT_EQ(t.HopCount(0, 2), 2);    // same pod, via an aggregation switch
  EXPECT_EQ(t.HopCount(0, 4), 4);    // cross-pod, via a core switch
  EXPECT_FALSE(t.NeedsDateline());
}

TEST(TopologyRoutes, OversubscribedNicsShareRouters) {
  // More machines than routers: NICs attach round-robin and stay routable.
  const Topology t = MustBuild("ring:4", 9);
  EXPECT_EQ(t.AttachRouter(0), 0);
  EXPECT_EQ(t.AttachRouter(4), 0);
  EXPECT_EQ(t.HopCount(0, 4), 0);  // same router, NIC links only
  EXPECT_EQ(t.HopCount(0, 6), 2);
}

TEST(TopologySeverHeal, ReroutesThenRestores) {
  Topology t = MustBuild("ring:8", 8);
  ASSERT_TRUE(t.SeverRouterLink(0, 1).ok());
  EXPECT_EQ(t.severed_links(), 1);
  EXPECT_TRUE(t.Reachable(0, 1));
  EXPECT_EQ(t.HopCount(0, 1), 7);  // all the way around
  ASSERT_TRUE(t.HealRouterLink(0, 1).ok());
  EXPECT_EQ(t.severed_links(), 0);
  EXPECT_EQ(t.HopCount(0, 1), 1);
}

TEST(TopologySeverHeal, PartitionMakesMachinesUnreachable) {
  Topology t = MustBuild("ring:4", 4);
  ASSERT_TRUE(t.SeverRouterLink(0, 1).ok());
  ASSERT_TRUE(t.SeverRouterLink(1, 2).ok());  // router 1 fully cut off
  EXPECT_FALSE(t.Reachable(0, 1));
  EXPECT_EQ(t.HopCount(0, 1), -1);
  EXPECT_TRUE(t.Reachable(0, 2));  // the long way stays up
}

TEST(TopologySeverHeal, RejectsBogusLinks) {
  Topology t = MustBuild("ring:4", 4);
  EXPECT_FALSE(t.SeverRouterLink(0, 0).ok());
  EXPECT_FALSE(t.SeverRouterLink(0, 9).ok());
  EXPECT_FALSE(t.SeverRouterLink(0, 2).ok());  // not ring neighbours
  EXPECT_FALSE(t.HealRouterLink(0, 1).ok());   // nothing severed
  EXPECT_TRUE(t.HasRouterLink(0, 1));
  EXPECT_TRUE(t.HasRouterLink(3, 0));  // the wrap, queried reversed
  EXPECT_FALSE(t.HasRouterLink(0, 2));
  ASSERT_TRUE(t.SeverRouterLink(0, 1).ok());
  EXPECT_TRUE(t.HasRouterLink(0, 1));  // dead links still exist
}

// --- The medium: credits, arbitration, drops --------------------------------

MediumParams LabParams() { return MediumParams{}; }  // the 10 Mb/s defaults

TEST(FabricMedium, DeliversAndCountsHops) {
  sim::Simulator sim;
  FabricOptions opts;
  RoutedFabricMedium medium(&sim, LabParams(), opts, MustBuild("ring:8", 8),
                            /*seed=*/7);
  int delivered = 0;
  sim.At(0, [&] {
    medium.Transmit(0, 4, 1000, [&] { ++delivered; });
    medium.Transmit(3, 3, 1000, [&] { ++delivered; });  // loopback
  });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(medium.stats().frames, 2u);
  EXPECT_EQ(medium.stats().hops, 4u);  // antipode route; loopback adds none
  EXPECT_EQ(medium.stats().unroutable_drops, 0u);
}

// A burst of frames funneling into one destination with single-frame input
// buffers must hit credit exhaustion, still deliver everything, and replay
// to the exact same schedule in a second identical universe.
std::vector<sim::SimTime> RunBurst(simnet::MediumStats* stats_out) {
  sim::Simulator sim;
  FabricOptions opts;
  opts.vc_buf_frames = 1;
  RoutedFabricMedium medium(&sim, LabParams(), opts, MustBuild("ring:4", 4),
                            /*seed=*/21);
  std::vector<sim::SimTime> deliveries;
  sim.At(0, [&] {
    for (int burst = 0; burst < 6; ++burst) {
      for (int src = 1; src < 4; ++src) {
        medium.Transmit(src, 0, 2000,
                        [&deliveries, &sim] { deliveries.push_back(sim.Now()); });
      }
    }
  });
  sim.RunUntilIdle();
  *stats_out = medium.stats();
  return deliveries;
}

TEST(FabricMedium, CreditBackpressureIsLosslessAndDeterministic) {
  simnet::MediumStats a_stats, b_stats;
  const std::vector<sim::SimTime> a = RunBurst(&a_stats);
  const std::vector<sim::SimTime> b = RunBurst(&b_stats);

  EXPECT_EQ(a.size(), 18u);  // every frame delivered despite buf = 1
  EXPECT_GT(a_stats.credit_stalls, 0u);
  EXPECT_GT(a_stats.queueing_time, 0);
  EXPECT_EQ(a_stats.frames, 18u);

  EXPECT_EQ(a, b);
  EXPECT_EQ(a_stats.credit_stalls, b_stats.credit_stalls);
  EXPECT_EQ(a_stats.busy_time, b_stats.busy_time);
  EXPECT_EQ(a_stats.queueing_time, b_stats.queueing_time);
}

TEST(FabricMedium, PartitionDropsUnroutableFrames) {
  sim::Simulator sim;
  FabricOptions opts;
  // Cut router 1 off from frame zero: both its ring links die before the
  // first transmission is routed.
  opts.link_faults.push_back({0, 1, 0, -1});
  opts.link_faults.push_back({1, 2, 0, -1});
  RoutedFabricMedium medium(&sim, LabParams(), opts, MustBuild("ring:4", 4),
                            /*seed=*/3);
  int delivered = 0;
  sim.At(0, [&] {
    medium.Transmit(0, 1, 500, [&] { ++delivered; });  // into the partition
    medium.Transmit(0, 2, 500, [&] { ++delivered; });  // long way, fine
  });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(medium.stats().unroutable_drops, 1u);
  EXPECT_FALSE(medium.Reachable(0, 1));
  EXPECT_TRUE(medium.Reachable(0, 2));
}

// --- Whole-simulation determinism on every topology family ------------------

SimReport RunGaussOnFabric(const std::string& topology) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.profile.physical_machines = 8;
  opts.num_processors = 8;
  opts.medium = MediumKind::kRoutedFabric;
  opts.fabric.topology = topology;
  SimRuntime rt(opts);
  apps::gauss::Register(rt.registry());
  apps::gauss::Config config{.n = 96, .sweeps = 2, .workers = 8};
  return rt.Run(apps::gauss::kMainTask, apps::gauss::MakeArg(config));
}

TEST(FabricSim, GaussReplaysBitForBitOnEveryTopology) {
  for (const char* topology : {"ring:8", "torus:4x2", "fattree:4"}) {
    const SimReport a = RunGaussOnFabric(topology);
    const SimReport b = RunGaussOnFabric(topology);
    EXPECT_GT(a.virtual_seconds, 0.0) << topology;
    const auto hops = a.medium_counters.find("fabric.hops");
    ASSERT_NE(hops, a.medium_counters.end()) << topology;
    EXPECT_GT(hops->second, 0u) << topology;

    EXPECT_EQ(a.virtual_seconds, b.virtual_seconds) << topology;
    EXPECT_EQ(a.messages, b.messages) << topology;
    EXPECT_EQ(a.main_result, b.main_result) << topology;
    EXPECT_EQ(a.node_stats, b.node_stats) << topology;
    EXPECT_EQ(a.medium_counters, b.medium_counters) << topology;
  }
}

// --- flink fault-plan grammar -----------------------------------------------

TEST(FlinkPlan, ParsesSeverAndHeal) {
  const auto plan =
      net::ParseFaultPlan("seed 5\nflink 0 2 after 40\nflink 1 3 after 9 heal 90\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->fabric_links.size(), 2u);
  EXPECT_EQ(plan->fabric_links[0].a, 0);
  EXPECT_EQ(plan->fabric_links[0].b, 2);
  EXPECT_EQ(plan->fabric_links[0].after, 40u);
  EXPECT_EQ(plan->fabric_links[0].heal, -1);
  EXPECT_EQ(plan->fabric_links[1].heal, 90);
  EXPECT_TRUE(plan->enabled());
}

TEST(FlinkPlan, RejectsMalformedDirectives) {
  EXPECT_FALSE(net::ParseFaultPlan("flink 0 0 after 5\n").ok());  // a == b
  EXPECT_FALSE(net::ParseFaultPlan("flink 0 1\n").ok());
  EXPECT_FALSE(net::ParseFaultPlan("flink 0 1 at 5\n").ok());
  EXPECT_FALSE(net::ParseFaultPlan("flink 0 1 after 5 heal\n").ok());
}

// --- Fabric faults end-to-end: the epoch-fenced recovery contract -----------

// The recovery acceptance program of recovery_test.cc, compact edition: a
// red-black sweep whose array is homed on `home` while the workers are
// pinned elsewhere, so fabric faults between them and the home are on the
// data path. The main result is the number of cells differing from the
// serial answer — 0 means bit-for-bit convergence.
constexpr int kCells = 26;
constexpr int kSweeps = 6;
constexpr int kWorkers = 3;

std::vector<double> SerialSweep() {
  std::vector<double> x(kCells, 0.0);
  x[0] = 1.0;
  x[kCells - 1] = 2.0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (int color = 0; color < 2; ++color) {
      for (int i = 1; i < kCells - 1; ++i) {
        if (i % 2 != color) continue;
        x[static_cast<size_t>(i)] = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                           x[static_cast<size_t>(i + 1)]);
      }
    }
  }
  return x;
}

void RegisterSweepHomedOn(TaskRegistry& registry, NodeId home,
                          std::array<NodeId, kWorkers> pins) {
  registry.Register("fab_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    std::int64_t lo = 0, hi = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    ASSERT_TRUE(r.ReadI64(&lo).ok());
    ASSERT_TRUE(r.ReadI64(&hi).ok());
    std::vector<double> x(kCells);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        t.ReadArray(addr, x.data(), x.size());
        for (std::int64_t i = lo; i <= hi; ++i) {
          if (i % 2 != color) continue;
          const double v = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                  x[static_cast<size_t>(i + 1)]);
          t.WriteValue(addr + static_cast<std::uint64_t>(i) * 8, v);
        }
        const std::uint64_t barrier_id =
            static_cast<std::uint64_t>((sweep * 2 + color + 1)) *
            static_cast<std::uint64_t>(t.num_nodes());
        ASSERT_TRUE(t.Barrier(barrier_id, kWorkers).ok());
      }
    }
  });

  registry.Register("fab_main", [home, pins](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, home);
    ASSERT_TRUE(addr.ok());
    std::vector<double> init(kCells, 0.0);
    init[0] = 1.0;
    init[kCells - 1] = 2.0;
    t.WriteArray(*addr, init.data(), init.size());

    std::vector<Gpid> workers;
    const int span = (kCells - 2) / kWorkers;
    for (int w = 0; w < kWorkers; ++w) {
      ByteWriter arg;
      arg.WriteU64(*addr);
      arg.WriteI64(1 + w * span);
      arg.WriteI64(w == kWorkers - 1 ? kCells - 2 : (w + 1) * span);
      auto gpid = t.Spawn("fab_worker", arg.TakeBuffer(),
                          pins[static_cast<size_t>(w)]);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    for (Gpid g : workers) ASSERT_TRUE(t.Join(g).ok());

    std::vector<double> got(kCells);
    t.ReadArray(*addr, got.data(), got.size());
    const std::vector<double> want = SerialSweep();
    std::int64_t mismatches = 0;
    for (int i = 0; i < kCells; ++i) {
      if (got[static_cast<size_t>(i)] != want[static_cast<size_t>(i)]) {
        ++mismatches;
      }
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });
}

std::int64_t ResultI64(const std::vector<std::uint8_t>& result) {
  ByteReader r(result.data(), result.size());
  std::int64_t v = -1;
  EXPECT_TRUE(r.ReadI64(&v).ok());
  return v;
}

std::uint64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

std::uint64_t SumCounter(const std::vector<MetricsSnapshot>& per_node,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& snap : per_node) total += Get(snap, name);
  return total;
}

// Four kernels on four machines around a ring:4, replicated homes, tight
// rpc budget — the fabric twin of recovery_test's SelfHealingSimOptions.
SimOptions FabricFaultSimOptions() {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.profile.physical_machines = 4;
  opts.num_processors = 4;
  opts.medium = MediumKind::kRoutedFabric;
  opts.fabric.topology = "ring:4";
  opts.fault_plan.seed = 21;
  opts.rpc_deadline_ms = 50;
  opts.rpc_max_attempts = 10;
  opts.rpc_backoff_base_ms = 1;
  opts.replication = 1;
  return opts;
}

// One severed link on a still-connected ring: traffic reroutes the long way
// around, nobody becomes unreachable, and the membership layer must NOT
// evict anyone. The answer stays exact and the whole episode replays
// bit-for-bit.
SimOptions SeveredLinkSimOptions() {
  SimOptions opts = FabricFaultSimOptions();
  opts.fault_plan.fabric_links.push_back({1, 2, 50, -1});
  return opts;
}

TEST(FabricFaultSim, SeveredLinkReroutesWithoutEviction) {
  SimRuntime rt(SeveredLinkSimOptions());
  RegisterSweepHomedOn(rt.registry(), 3, {0, 1, 2});

  const SimReport a = rt.Run("fab_main");
  const SimReport b = rt.Run("fab_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.medium_counters, "fabric.links_severed"), 1u);
  EXPECT_EQ(SumCounter(a.node_stats, "recovery.evictions"), 0u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.medium_counters, b.medium_counters);
}

// Both links of router 3 die: machine 3 — homing the array — is cut off
// even though its node never crashed. The quorum side must fence the old
// epoch, evict node 3, promote the replicated backup, and still land the
// sweep bit-for-bit on the serial answer; and the whole recovery schedule
// must replay identically.
SimOptions IsolatedHomeSimOptions() {
  SimOptions opts = FabricFaultSimOptions();
  opts.fault_plan.fabric_links.push_back({3, 0, 150, -1});
  opts.fault_plan.fabric_links.push_back({2, 3, 150, -1});
  return opts;
}

TEST(FabricFaultSim, IsolatedHomeEvictsPromotesAndConverges) {
  SimRuntime rt(IsolatedHomeSimOptions());
  RegisterSweepHomedOn(rt.registry(), 3, {0, 1, 2});

  const SimReport a = rt.Run("fab_main");
  const SimReport b = rt.Run("fab_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.medium_counters, "fabric.links_severed"), 2u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.promotions"), 1u);
  EXPECT_EQ(Get(a.node_stats[3], "recovery.evictions"), 0u);  // it parked

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.medium_counters, b.medium_counters);
}

// Both fabric cases again with the injector dropping or duplicating frames
// — heartbeats and evictions included — on top of the link schedule: a
// rerouted ring still evicts nobody, an isolated home is still evicted and
// promoted, the sweep stays exact, every node the fabric still reaches ends
// on the newest epoch, and the run replays bit-for-bit.
struct FabricFaultCase {
  const char* name;
  SimOptions (*options)();
  std::uint64_t evictions;  // expected recovery.evictions, cluster-wide
};
void PrintTo(const FabricFaultCase& v, std::ostream* os) { *os << v.name; }
constexpr FabricFaultCase kFabricFaultCases[] = {
    {"SeveredLink", SeveredLinkSimOptions, 0},
    // Nodes 0, 1 and 2 each evict the isolated node 3 once.
    {"IsolatedHome", IsolatedHomeSimOptions, 3},
};

class FabricFaultSimMessageFaults
    : public testing::TestWithParam<
          std::tuple<FabricFaultCase, MessageFaults>> {};

TEST_P(FabricFaultSimMessageFaults, SweepStaysExactAndReplays) {
  const auto& [c, faults] = GetParam();
  SimOptions opts = c.options();
  faults.ApplyTo(&opts);
  SimRuntime rt(opts);
  RegisterSweepHomedOn(rt.registry(), 3, {0, 1, 2});

  const SimReport a = rt.Run("fab_main");
  const SimReport b = rt.Run("fab_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_GE(Get(a.fault_counters, faults.counter), 1u);
  EXPECT_EQ(SumCounter(a.node_stats, "recovery.evictions"), c.evictions);
  // Nodes 0-2 stay connected, so each ends on the newest epoch.
  const std::uint64_t newest = NewestEpoch(a);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(Get(a.node_stats[static_cast<size_t>(n)], "recovery.epoch"),
              newest)
        << "node " << n;
  }

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.medium_counters, b.medium_counters);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

INSTANTIATE_TEST_SUITE_P(
    MessageFaults, FabricFaultSimMessageFaults,
    testing::Combine(testing::ValuesIn(kFabricFaultCases),
                     testing::ValuesIn(kMessageFaults)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace dse
