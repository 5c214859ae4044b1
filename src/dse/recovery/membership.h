// The membership protocol (docs/recovery.md): the failure detector, the
// quorum guard, coordinator eviction and its re-announcements, self-eviction
// and rejoin, planned drains, and state-transfer ticks — one implementation
// for every runtime.
//
// Membership is transport-free and clock-injected. It reads and mutates the
// node's KernelCore and returns what the runtime must do next, the way
// KernelCore::Handle does: envelopes to send, the follow-ups of the kernel
// calls it made, and the peers it newly declared dead. NodeHost ticks it from
// its heartbeat thread on the steady clock; the simulator ticks it from one
// process per node on virtual time, so the same Heartbeat, EvictReq, DrainReq
// and NodeJoinReq frames cross the fault injector on both.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "dse/kernel_core.h"

namespace dse {

// Liveness probing, spelled the same on every runtime: every period the node
// heartbeats each peer it sent no other frame to in that period, and
// declares any peer silent past the timeout dead (failing that peer's
// in-flight calls with kUnavailable and refusing new sends to it).
struct HeartbeatOptions {
  // Positive = period in ms; 0 = auto: 25 ms on a lossy fabric (a fault
  // plan is active), so crashed peers are detected rather than waited on
  // forever, and off otherwise; negative = off. Busy links carry no
  // heartbeats, so the short period costs frames only on idle ones.
  int period_ms = 0;
  // 0 = 5x the period.
  int timeout_ms = 0;

  // The period the prober runs at; 0 means no prober.
  int EffectivePeriodMs(bool lossy) const {
    if (period_ms > 0) return period_ms;
    return period_ms == 0 && lossy ? 25 : 0;
  }
  int EffectiveTimeoutMs(int period) const {
    return timeout_ms > 0 ? timeout_ms : 5 * period;
  }
};

namespace recovery {

class Membership {
 public:
  struct Options {
    int period_ms = 0;   // tick period; the baseline of pause compensation
    int timeout_ms = 0;  // silence after which a peer is suspected
    // Planned drain trigger (fault-plan `drain N after M`): polled by the
    // coordinator's tick; a true answer for a live peer starts that peer's
    // drain, once per peer.
    std::function<bool(NodeId peer)> drain_requested;
  };

  struct Actions {
    // Envelopes to send (membership frames and the follow-ups of kernel
    // calls, in order), tasks to start, console lines.
    KernelCore::Actions kernel;
    // Peers newly declared dead: the runtime fails their in-flight calls.
    std::vector<NodeId> dead;
    // OnFrame only: the frame was membership traffic and must not reach
    // KernelCore::Handle.
    bool consumed = false;
  };

  // `core_mu`, when given, is held around every call into `core` (NodeHost
  // serializes its kernel with it; the simulator has one thread and passes
  // none).
  Membership(KernelCore* core, Options options,
             std::mutex* core_mu = nullptr);

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  // Counts every peer as heard at `now_ms`; call once before the first tick.
  void Start(std::int64_t now_ms);
  // The tick period (0: nothing ticks this instance).
  int period_ms() const { return options_.period_ms; }

  // Per-frame path (lock-free): any frame proves its sender alive.
  void NoteHeard(NodeId src, std::int64_t now_ms) {
    if (src >= 0 && src < static_cast<NodeId>(last_heard_ms_.size())) {
      last_heard_ms_[static_cast<size_t>(src)].store(
          now_ms, std::memory_order_relaxed);
    }
  }
  // Per-send path (lock-free): a frame to `dst` stands in for this
  // period's heartbeat to it.
  void NoteSent(NodeId dst, std::int64_t now_ms) {
    if (dst >= 0 && dst < static_cast<NodeId>(last_sent_ms_.size())) {
      last_sent_ms_[static_cast<size_t>(dst)].store(
          now_ms, std::memory_order_relaxed);
    }
  }
  // True once `peer` is suspected dead (lock-free).
  bool Suspected(NodeId peer) const {
    return peer >= 0 && peer < static_cast<NodeId>(suspected_.size()) &&
           suspected_[static_cast<size_t>(peer)].load(
               std::memory_order_relaxed);
  }

  // One failure-detector period: silence detection (with pause compensation
  // and the two-pass latch), probes, a rejoining node's repeated join
  // request, the coordinator's eviction re-announcements and drain duties,
  // and the state-transfer tick.
  Actions Tick(std::int64_t now_ms);

  // Inbound frame hook, after NoteHeard: revokes the suspicion of a member
  // heard from again, consumes Heartbeat and EvictReq frames, and clears the
  // liveness latches a NodeJoinResp obsoletes (that frame still goes on to
  // the kernel).
  Actions OnFrame(const proto::Envelope& env, std::int64_t now_ms);

  // A kRetryResp epoch bounce from `responder`: adopt its eviction if it is
  // ahead, push-repair it with our last change (KernelCore::LastChange) if
  // it lags.
  Actions OnRetrySignal(NodeId responder, const proto::RetryResp& rr);

  // Planned drain admin verb: applies DrainReq{node} locally and broadcasts
  // it to every live member, the target included. No-op with replication
  // off or for a dead/invalid node.
  Actions Drain(NodeId node);

 private:
  // Latches `node` suspected-dead (no membership change yet).
  void Latch(NodeId node, const char* why, Actions* out);
  // Latches `node` and applies its eviction at `epoch` (0 = this node's next
  // epoch). A locally detected eviction (epoch 0) applies only while a
  // quorum of the current members is reachable; below it the node parks.
  // The coordinator announces every eviction it applies.
  void Evict(NodeId node, std::uint32_t epoch, const char* why, Actions* out);
  // Current members counted toward the quorum: this node, and every peer
  // not suspected and heard within half a timeout of the latest tick.
  int Reachable() const;
  // The coordinator's EvictReq{evicted, evict_epoch} to every live member,
  // and with rejoin on to the evicted node too.
  void Announce(NodeId evicted, std::uint32_t evict_epoch, Actions* out);
  void Send(NodeId dst, std::uint32_t epoch, proto::Body body, Actions* out);
  std::unique_lock<std::mutex> LockCore();
  NodeId self() const { return core_->self(); }
  int num_nodes() const { return core_->num_nodes(); }

  KernelCore* core_;
  Options options_;
  std::mutex* core_mu_;
  Counter* nodes_dead_;

  // last_heard_ms_[n]: the last time a frame from n arrived; suspected_[n]
  // latches once n is declared — but with replication on, a frame from a
  // suspected peer that is still a member revokes the suspicion (heal).
  std::vector<std::atomic<std::int64_t>> last_heard_ms_;
  // last_sent_ms_[n]: the last time this node sent n a frame.
  std::vector<std::atomic<std::int64_t>> last_sent_ms_;
  std::vector<std::atomic<bool>> suspected_;
  // One latch per peer for drain_requested: the trigger stays true after
  // the node drained and rejoined, so without it the coordinator would
  // drain it again forever.
  std::vector<std::atomic<bool>> drain_initiated_;
  // True while quorum-parked (one recovery.quorum_parks count per episode)
  // / mid-rejoin (the join request repeats; the kernel resets once).
  std::atomic<bool> parked_{false};
  std::atomic<bool> joining_{false};
  std::atomic<NodeId> join_to_{-1};  // the announcer of our eviction
  std::int64_t last_tick_ms_ = 0;  // the clock of the latest Tick
};

}  // namespace recovery
}  // namespace dse
