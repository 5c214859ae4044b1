// recovery::Membership in isolation: a real KernelCore, a fake millisecond
// clock, and no transport. Every test drives the protocol by hand — ticks at
// chosen times, frames handed to OnFrame — and inspects the envelopes it
// asks to send and the kernel's membership view.
#include "dse/recovery/membership.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dse/kernel_core.h"

namespace dse::recovery {
namespace {

constexpr int kPeriodMs = 50;
constexpr int kTimeoutMs = 250;

// One node's kernel and membership, clock at 0.
struct Node {
  Node(NodeId self, int num_nodes, bool rejoin = true)
      : core(self, num_nodes, Options(rejoin)),
        membership(&core, Membership::Options{kPeriodMs, kTimeoutMs, {}}) {
    membership.Start(0);
  }

  static KernelOptions Options(bool rejoin) {
    KernelOptions opts;
    opts.replication = 1;
    opts.rejoin = rejoin;
    return opts;
  }

  KernelCore core;
  Membership membership;
};

// Destinations of the `type` envelopes in `actions`, in send order.
std::vector<NodeId> SentTo(const Membership::Actions& actions,
                           proto::MsgType type) {
  std::vector<NodeId> dsts;
  for (const auto& out : actions.kernel.out) {
    if (out.env.type() == type) dsts.push_back(out.dst);
  }
  return dsts;
}

proto::Envelope From(NodeId src, std::uint32_t epoch, proto::Body body) {
  proto::Envelope env;
  env.src_node = src;
  env.epoch = epoch;
  env.body = std::move(body);
  return env;
}

std::uint64_t Counter(KernelCore& core, const char* name) {
  return core.metrics().counter(name)->value();
}

// Ticks every period up to and including `until`, hearing `heard` peers
// just before each tick; returns the last tick's actions.
Membership::Actions TickUntil(Node& node, std::int64_t from,
                              std::int64_t until,
                              const std::vector<NodeId>& heard) {
  Membership::Actions last;
  for (std::int64_t t = from; t <= until; t += kPeriodMs) {
    for (const NodeId n : heard) node.membership.NoteHeard(n, t);
    last = node.membership.Tick(t);
  }
  return last;
}

// A symmetric partition {0,1} | {2,3}: node 0 hears only node 1. Both silent
// peers time out in the same tick, and both are latched before either is
// evicted — so node 0 counts 2 reachable members of 4, below the quorum of
// 3, and parks instead of evicting. (Evicting node 2 first would leave
// {0,1,3} looking reachable and pass the check.)
TEST(Membership, PartitionMinorityLatchesEverySilentPeerThenParks) {
  Node node(0, 4);
  Membership::Actions a = TickUntil(node, kPeriodMs, kTimeoutMs, {1});
  EXPECT_TRUE(a.dead.empty());
  a = TickUntil(node, kTimeoutMs + kPeriodMs, kTimeoutMs + kPeriodMs, {1});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(node.membership.Suspected(2));
  EXPECT_TRUE(node.membership.Suspected(3));
  EXPECT_FALSE(node.membership.Suspected(1));
  EXPECT_EQ(node.core.epoch(), 0u);
  EXPECT_TRUE(node.core.NodeAlive(2));
  EXPECT_TRUE(node.core.NodeAlive(3));
  EXPECT_EQ(Counter(node.core, "recovery.quorum_parks"), 1u);
  EXPECT_TRUE(SentTo(a, proto::MsgType::kEvictReq).empty());
  // Parked, node 0 keeps probing its suspected members so a heal can
  // revoke the suspicion; the park is one episode, not one per tick.
  a = TickUntil(node, 2 * kTimeoutMs, 2 * kTimeoutMs, {1});
  EXPECT_EQ(SentTo(a, proto::MsgType::kHeartbeat),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(Counter(node.core, "recovery.quorum_parks"), 1u);
  // The heal: a frame from node 2 revokes its suspicion.
  a = node.membership.OnFrame(From(2, 0, proto::Heartbeat{}), 2 * kTimeoutMs);
  EXPECT_TRUE(a.consumed);
  EXPECT_FALSE(node.membership.Suspected(2));
  EXPECT_TRUE(node.membership.Suspected(3));
}

// Node 0 is cut off from everyone, but its peers fall silent a tick apart
// (node 1 last heard at 0, node 2 at 50, node 3 at 100), so they time out
// on successive ticks. When node 1 times out, nodes 2 and 3 are not yet
// suspected but have been silent for more than half a timeout: they do not
// count as reachable, so node 0 parks instead of evicting node 1 alone.
// Once nodes 2 and 3 are heard again the quorum is back, and node 1 gets a
// fresh detection window: silent through it, it is evicted.
TEST(Membership, StaggeredTimeoutsStillPark) {
  Node node(0, 4);
  node.membership.NoteHeard(1, 0);
  node.membership.NoteHeard(2, kPeriodMs);
  node.membership.NoteHeard(3, 2 * kPeriodMs);
  Membership::Actions a = TickUntil(node, kPeriodMs, kTimeoutMs, {});
  EXPECT_TRUE(a.dead.empty());
  a = TickUntil(node, kTimeoutMs + kPeriodMs, kTimeoutMs + kPeriodMs, {});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{1}));
  EXPECT_EQ(Counter(node.core, "recovery.quorum_parks"), 1u);
  a = TickUntil(node, kTimeoutMs + 2 * kPeriodMs, kTimeoutMs + 3 * kPeriodMs,
                {});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{3}));
  EXPECT_EQ(node.core.epoch(), 0u);
  for (NodeId n = 1; n < 4; ++n) EXPECT_TRUE(node.core.NodeAlive(n));
  EXPECT_TRUE(SentTo(a, proto::MsgType::kEvictReq).empty());
  EXPECT_EQ(Counter(node.core, "recovery.quorum_parks"), 1u);

  // Nodes 2 and 3 come back; node 1 stays silent.
  const std::int64_t heal = kTimeoutMs + 4 * kPeriodMs;
  node.membership.OnFrame(From(2, 0, proto::Heartbeat{}), heal);
  node.membership.OnFrame(From(3, 0, proto::Heartbeat{}), heal);
  a = TickUntil(node, heal, heal + kTimeoutMs, {2, 3});
  EXPECT_FALSE(node.membership.Suspected(1));
  EXPECT_TRUE(a.dead.empty());
  EXPECT_EQ(node.core.epoch(), 0u);
  a = TickUntil(node, heal + kTimeoutMs + kPeriodMs,
                heal + kTimeoutMs + kPeriodMs, {2, 3});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{1}));
  EXPECT_EQ(node.core.epoch(), 1u);
  EXPECT_FALSE(node.core.NodeAlive(1));
  EXPECT_TRUE(node.core.NodeAlive(2));
  EXPECT_TRUE(node.core.NodeAlive(3));
  const std::vector<NodeId> evicts = SentTo(a, proto::MsgType::kEvictReq);
  EXPECT_EQ(std::count(evicts.begin(), evicts.end(), 2), 2);  // announce +
  EXPECT_EQ(std::count(evicts.begin(), evicts.end(), 3), 2);  // re-announce
}

// A frame already sent to a peer this period stands in for its heartbeat:
// busy links carry no probes.
TEST(Membership, FrameSentThisPeriodReplacesTheHeartbeat) {
  Node node(0, 3);
  node.membership.NoteSent(1, kPeriodMs - 1);
  Membership::Actions a = TickUntil(node, kPeriodMs, kPeriodMs, {1, 2});
  EXPECT_EQ(SentTo(a, proto::MsgType::kHeartbeat), (std::vector<NodeId>{2}));
  // A period later the stamp is stale again and node 1 is probed.
  a = TickUntil(node, 2 * kPeriodMs, 2 * kPeriodMs, {1, 2});
  EXPECT_EQ(SentTo(a, proto::MsgType::kHeartbeat),
            (std::vector<NodeId>{1, 2}));
}

// A planned drain's DrainReq can be lost. The coordinator repeats it to the
// target every tick until the target reports ready for cutover, so the
// drain cannot stall (the target ignores duplicates).
TEST(Membership, CoordinatorRepeatsDrainReqUntilTheTargetIsReady) {
  Node coord(0, 4);
  Membership::Actions a = coord.membership.Drain(2);
  EXPECT_EQ(SentTo(a, proto::MsgType::kDrainReq),
            (std::vector<NodeId>{1, 2, 3}));
  ASSERT_TRUE(coord.core.NodeDraining(2));
  for (std::int64_t t = kPeriodMs; t <= 3 * kPeriodMs; t += kPeriodMs) {
    a = TickUntil(coord, t, t, {1, 2, 3});
    EXPECT_EQ(SentTo(a, proto::MsgType::kDrainReq), (std::vector<NodeId>{2}))
        << "t=" << t;
  }
}

// The other side of a 5-node partition {0,1,2} | {3,4}: node 0, the
// coordinator, holds 3 of 5 and evicts both silent peers, announcing each
// eviction to the survivors (and, with rejoin on, to the evicted node).
TEST(Membership, PartitionMajorityEvictsEverySilentPeer) {
  Node node(0, 5);
  const Membership::Actions a =
      TickUntil(node, kPeriodMs, kTimeoutMs + kPeriodMs, {1, 2});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{3, 4}));
  EXPECT_FALSE(node.core.NodeAlive(3));
  EXPECT_FALSE(node.core.NodeAlive(4));
  EXPECT_EQ(node.core.epoch(), 2u);
  EXPECT_EQ(Counter(node.core, "recovery.quorum_parks"), 0u);
  EXPECT_EQ(Counter(node.core, "recovery.evictions"), 2u);
  const std::vector<NodeId> evicts = SentTo(a, proto::MsgType::kEvictReq);
  for (const NodeId survivor : {1, 2}) {
    EXPECT_GE(std::count(evicts.begin(), evicts.end(), survivor), 2);
  }
}

// A monitor that was itself descheduled for longer than the timeout must
// not declare its peers dead on wake-up: the excess over one period is
// credited back. A peer that then stays silent is still detected, one
// timeout of *running* time later.
TEST(Membership, MonitorPauseCreditsTheExcessBack) {
  Node node(0, 3);
  TickUntil(node, kPeriodMs, 2 * kPeriodMs, {1, 2});
  // Paused from t=100 to t=1000: nothing heard, 900 ms of apparent silence.
  Membership::Actions a = node.membership.Tick(1000);
  EXPECT_TRUE(a.dead.empty());
  EXPECT_FALSE(node.membership.Suspected(1));
  EXPECT_FALSE(node.membership.Suspected(2));
  // Node 1 keeps talking, node 2 stays silent: 250 ms of running time
  // after the wake-up (credited back to t=950) is not yet over the timeout,
  // the next tick is.
  a = TickUntil(node, 1000 + kPeriodMs, 1200, {1});
  EXPECT_TRUE(a.dead.empty());
  a = TickUntil(node, 1250, 1250, {1});
  EXPECT_EQ(a.dead, (std::vector<NodeId>{2}));
}

// The coordinator's per-tick re-announcement of an eviction goes to every
// survivor, and to the evicted node itself only with rejoin on — that is
// what a restarted or healed node rejoins from.
TEST(Membership, CoordinatorReannouncesToEvictedNodeOnlyWithRejoin) {
  for (const bool rejoin : {true, false}) {
    Node node(0, 4, rejoin);
    node.membership.OnFrame(From(1, 0, proto::EvictReq{3, 1}), 0);
    ASSERT_FALSE(node.core.NodeAlive(3));
    const Membership::Actions a = TickUntil(node, kPeriodMs, kPeriodMs, {1, 2});
    const std::vector<NodeId> evicts = SentTo(a, proto::MsgType::kEvictReq);
    EXPECT_EQ(evicts, rejoin ? (std::vector<NodeId>{1, 2, 3})
                             : (std::vector<NodeId>{1, 2}))
        << "rejoin=" << rejoin;
    for (const auto& out : a.kernel.out) {
      if (const auto* e = std::get_if<proto::EvictReq>(&out.env.body)) {
        EXPECT_EQ(e->node, 3);
        EXPECT_EQ(e->epoch, 1u);
      }
    }
  }
}

// The evicted node hears its own eviction every coordinator tick. It wipes
// its kernel once — a second reset would throw away the state it rebuilt
// since — but answers every announcement with a NodeJoinReq to the
// announcer, since any one of them may be lost.
TEST(Membership, RepeatedSelfEvictionResetsOnceAndRejoinsEveryTime) {
  Node node(3, 4);
  const proto::Envelope announce = From(0, 1, proto::EvictReq{3, 1});
  Membership::Actions a = node.membership.OnFrame(announce, 0);
  EXPECT_TRUE(a.consumed);
  EXPECT_EQ(SentTo(a, proto::MsgType::kNodeJoinReq), (std::vector<NodeId>{0}));
  EXPECT_TRUE(node.core.own_home_pending());  // the reset ran

  // State gained after the reset (a task registered here) survives the
  // repeated announcement.
  node.core.RegisterLocalTask("survivor");
  ASSERT_EQ(node.core.PsSnapshot().size(), 1u);
  a = node.membership.OnFrame(announce, kPeriodMs);
  EXPECT_EQ(SentTo(a, proto::MsgType::kNodeJoinReq), (std::vector<NodeId>{0}));
  EXPECT_EQ(node.core.PsSnapshot().size(), 1u);
  // The admitted coordinator stops announcing, so until the admission
  // arrives every tick asks again — a lost NodeJoinResp must not strand us.
  a = node.membership.Tick(kPeriodMs);
  EXPECT_EQ(SentTo(a, proto::MsgType::kNodeJoinReq), (std::vector<NodeId>{0}));
  // Admission ends the episode: no more join requests, and the next
  // eviction resets again.
  proto::NodeJoinResp resp;
  resp.node = 3;
  resp.epoch = 2;
  resp.alive = {1, 1, 1, 1};
  node.membership.OnFrame(From(0, 2, resp), 2 * kPeriodMs);
  a = node.membership.Tick(2 * kPeriodMs);
  EXPECT_TRUE(SentTo(a, proto::MsgType::kNodeJoinReq).empty());
  a = node.membership.OnFrame(From(0, 3, proto::EvictReq{3, 3}), 3 * kPeriodMs);
  EXPECT_EQ(SentTo(a, proto::MsgType::kNodeJoinReq), (std::vector<NodeId>{0}));
  EXPECT_TRUE(node.core.PsSnapshot().empty());
}

// RetryResp doubles as epoch gossip: a responder ahead of us hands us the
// eviction we missed; a responder behind us gets it pushed.
TEST(Membership, RetryRespAdoptsNewerEpochAndPushRepairsOlder) {
  Node node(1, 4);
  Membership::Actions a =
      node.membership.OnRetrySignal(2, proto::RetryResp{1, 3});
  EXPECT_EQ(node.core.epoch(), 1u);
  EXPECT_FALSE(node.core.NodeAlive(3));
  EXPECT_EQ(a.dead, (std::vector<NodeId>{3}));
  EXPECT_TRUE(SentTo(a, proto::MsgType::kEvictReq).empty());  // not coord

  a = node.membership.OnRetrySignal(2, proto::RetryResp{0, -1});
  ASSERT_EQ(SentTo(a, proto::MsgType::kEvictReq), (std::vector<NodeId>{2}));
  const proto::Envelope& push = a.kernel.out.front().env;
  EXPECT_EQ(push.epoch, 1u);
  EXPECT_EQ(std::get<proto::EvictReq>(push.body).node, 3);
  EXPECT_EQ(std::get<proto::EvictReq>(push.body).epoch, 1u);
  EXPECT_EQ(node.core.epoch(), 1u);

  // Same epoch: nothing to adopt or repair.
  a = node.membership.OnRetrySignal(2, proto::RetryResp{1, 3});
  EXPECT_TRUE(a.kernel.out.empty());
  EXPECT_TRUE(a.dead.empty());
}

// Node 2 is evicted and re-admitted so quickly that the coordinator never
// re-announces the eviction, and node 1 loses both the EvictReq and the
// admission broadcast. A RetryResp has no room for an admission, so the
// coordinator sends the admission itself to the lagging peer — when one of
// its requests bounces off node 1, and when node 1's request bounces off
// it. Node 1 still counts node 2 alive, so the admission also tells it that
// it missed node 2's eviction: it applies that first, and re-seeds the
// wiped node 2 (its ring successor) with its home.
TEST(Membership, LaggingPeerCatchesUpOnAMissedEvictionAndAdmission) {
  Node coord(0, 4);
  coord.core.ApplyEviction(2, 1);
  coord.core.Handle(From(2, 0, proto::NodeJoinReq{2}));
  ASSERT_EQ(coord.core.epoch(), 2u);
  ASSERT_TRUE(coord.core.NodeAlive(2));

  Membership::Actions a =
      coord.membership.OnRetrySignal(1, proto::RetryResp{0, -1});
  ASSERT_EQ(SentTo(a, proto::MsgType::kNodeJoinResp),
            (std::vector<NodeId>{1}));
  const proto::Envelope admission = a.kernel.out.front().env;
  EXPECT_EQ(std::get<proto::NodeJoinResp>(admission.body).node, 2);
  EXPECT_EQ(std::get<proto::NodeJoinResp>(admission.body).epoch, 2u);

  proto::Envelope stale = From(1, 0, proto::ReadReq{});
  stale.req_id = 7;
  const KernelCore::Actions bounce = coord.core.Handle(stale);
  std::vector<proto::MsgType> types;
  for (const auto& out : bounce.out) {
    EXPECT_EQ(out.dst, 1);
    types.push_back(out.env.type());
  }
  EXPECT_EQ(types, (std::vector<proto::MsgType>{proto::MsgType::kRetryResp,
                                                proto::MsgType::kNodeJoinResp}));

  Node lagging(1, 4);
  lagging.membership.OnFrame(admission, 0);
  const KernelCore::Actions caught_up = lagging.core.Handle(admission);
  EXPECT_EQ(lagging.core.epoch(), 2u);
  EXPECT_TRUE(lagging.core.NodeAlive(2));
  EXPECT_EQ(Counter(lagging.core, "recovery.evictions"), 1u);
  bool reseeded = false;
  for (const auto& out : caught_up.out) {
    reseeded |= out.dst == 2 && out.env.type() == proto::MsgType::kStateChunkReq;
  }
  EXPECT_TRUE(reseeded);
  // A second copy of the admission changes nothing.
  EXPECT_TRUE(lagging.core.Handle(admission).out.empty());
  EXPECT_EQ(Counter(lagging.core, "recovery.evictions"), 1u);
}

}  // namespace
}  // namespace dse::recovery
