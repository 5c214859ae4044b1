// The shared cluster knobs reach the kernel: each ClusterOptions field, set
// to a non-default value on NodeHost::Options, is what the host's kernel
// core reports. One row per field; a field without a row is a knob nobody
// checked.
#include <functional>
#include <ostream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "dse/cluster_options.h"
#include "dse/node_host.h"
#include "net/inproc.h"

namespace dse {
namespace {

struct Knob {
  const char* field;
  std::function<void(ClusterOptions&)> set;
  std::function<bool(KernelCore&)> reached;
};

void PrintTo(const Knob& k, std::ostream* os) { *os << k.field; }

const Knob kKnobs[] = {
    {"read_cache", [](ClusterOptions& o) { o.read_cache = true; },
     [](KernelCore& c) { return c.read_cache_enabled(); }},
    {"pipelined_transfers",
     [](ClusterOptions& o) { o.pipelined_transfers = true; },
     [](KernelCore& c) { return c.pipelined_transfers(); }},
    {"batching", [](ClusterOptions& o) { o.batching = true; },
     [](KernelCore& c) { return c.batching_enabled(); }},
    // The depth only applies with the read cache it fills.
    {"prefetch_depth",
     [](ClusterOptions& o) {
       o.read_cache = true;
       o.prefetch_depth = 3;
     },
     [](KernelCore& c) { return c.prefetch_depth() == 3; }},
    {"write_combine", [](ClusterOptions& o) { o.write_combine = true; },
     [](KernelCore& c) { return c.write_combine_enabled(); }},
    {"rpc_deadline_ms", [](ClusterOptions& o) { o.rpc_deadline_ms = 77; },
     [](KernelCore& c) { return c.rpc_deadline_ms() == 77; }},
    {"rpc_max_attempts", [](ClusterOptions& o) { o.rpc_max_attempts = 7; },
     [](KernelCore& c) { return c.rpc_max_attempts() == 7; }},
    {"rpc_backoff_base_ms",
     [](ClusterOptions& o) { o.rpc_backoff_base_ms = 9; },
     [](KernelCore& c) { return c.rpc_backoff_base_ms() == 9; }},
    {"replication", [](ClusterOptions& o) { o.replication = 1; },
     [](KernelCore& c) { return c.replication_on(); }},
    {"restart_tasks", [](ClusterOptions& o) { o.restart_tasks = true; },
     [](KernelCore& c) { return c.restart_tasks(); }},
    // Two nodes need both for a majority.
    {"min_quorum", [](ClusterOptions& o) { o.min_quorum = 1; },
     [](KernelCore& c) { return c.QuorumRequired() == 1; }},
    {"rejoin", [](ClusterOptions& o) { o.rejoin = false; },
     [](KernelCore& c) { return !c.rejoin_enabled(); }},
    {"sched",
     [](ClusterOptions& o) {
       o.sched.enabled = true;
       o.sched.slots_per_node = 3;
     },
     [](KernelCore& c) {
       return c.scheduler() != nullptr &&
              c.scheduler()->Stat().counters["sched.slots_total"] == 2 * 3;
     }},
};

// Whether node 0 of a two-node cluster, hosted with `options`, passes
// `check`.
bool HostReports(NodeHost::Options options,
                 const std::function<bool(KernelCore&)>& check) {
  net::InProcFabric fabric(2);
  TaskRegistry registry;
  options.registry = &registry;
  NodeHost host(&fabric.endpoint(0), 2, std::move(options));
  return check(host.core());
}

class KnobReachesKernel : public ::testing::TestWithParam<Knob> {};

TEST_P(KnobReachesKernel, ThroughNodeHostOptions) {
  const Knob& knob = GetParam();
  EXPECT_FALSE(HostReports(NodeHost::Options{}, knob.reached))
      << "already so by default";
  NodeHost::Options options;
  knob.set(options);
  EXPECT_TRUE(HostReports(options, knob.reached));
}

INSTANTIATE_TEST_SUITE_P(
    ClusterOptions, KnobReachesKernel, ::testing::ValuesIn(kKnobs),
    [](const ::testing::TestParamInfo<Knob>& info) {
      return std::string(info.param.field);
    });

// A lossy fabric is the one setting a host derives rather than copies: sync
// calls resend on the data-plane deadline.
TEST(ClusterOptions, LossyHostResendsSyncCalls) {
  const auto sync_retry = [](KernelCore& c) { return c.rpc_sync_retry(); };
  NodeHost::Options options;
  EXPECT_FALSE(HostReports(options, sync_retry));
  options.lossy = true;
  EXPECT_TRUE(HostReports(options, sync_retry));
}

TEST(ClusterOptions, LossyFabricNeedsFiniteDeadline) {
  ClusterOptions options;
  EXPECT_TRUE(CheckLossyDeadline(options, /*lossy=*/true).ok());
  options.rpc_deadline_ms = 0;
  EXPECT_TRUE(CheckLossyDeadline(options, /*lossy=*/false).ok());
  EXPECT_EQ(CheckLossyDeadline(options, /*lossy=*/true).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ClusterOptions, HeartbeatZeroMeansAutoNegativeMeansOff) {
  HeartbeatOptions hb;
  EXPECT_EQ(hb.EffectivePeriodMs(/*lossy=*/false), 0);
  EXPECT_EQ(hb.EffectivePeriodMs(/*lossy=*/true), 50);
  hb.period_ms = -1;
  EXPECT_EQ(hb.EffectivePeriodMs(/*lossy=*/true), 0);
  hb.period_ms = 20;
  EXPECT_EQ(hb.EffectivePeriodMs(/*lossy=*/false), 20);
  EXPECT_EQ(hb.EffectivePeriodMs(/*lossy=*/true), 20);
}

}  // namespace
}  // namespace dse
