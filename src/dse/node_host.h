// One DSE node hosted on real OS threads: the kernel core, its message
// service loop, the pending-call table, and the task threads running DSE
// processes placed on this node.
//
// Used by two compositions:
//   * ThreadedRuntime — N NodeHosts over the in-process fabric (one binary).
//   * ProcessRuntime  — 1 NodeHost per UNIX process over the TCP fabric
//     (the paper's actual deployment shape).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dse/client.h"
#include "dse/kernel_core.h"
#include "dse/registry.h"
#include "dse/task.h"
#include "net/endpoint.h"

namespace dse {

// Liveness probing, spelled the same on every runtime built on NodeHost:
// every period the host heartbeats its peers and declares any peer silent
// past the timeout dead (failing that peer's in-flight calls with
// kUnavailable and refusing new sends to it).
struct HeartbeatOptions {
  // Positive = period in ms; 0 = auto: 50 ms on a lossy fabric (a fault
  // plan is active), so crashed peers are detected rather than waited on
  // forever, and off otherwise; negative = off.
  int period_ms = 0;
  // 0 = 5x the period.
  int timeout_ms = 0;

  // The period the prober runs at; 0 means no prober.
  int EffectivePeriodMs(bool lossy) const {
    if (period_ms > 0) return period_ms;
    return period_ms == 0 && lossy ? 50 : 0;
  }
};

class NodeHost {
 public:
  struct Options : ClusterOptions {
    TaskRegistry* registry = nullptr;            // required
    // The fabric under this host may lose frames (its runtime runs a fault
    // plan): sync calls resend on the data-plane deadline
    // (KernelOptionsFor) and the heartbeat prober defaults on.
    bool lossy = false;
    HeartbeatOptions heartbeat;
    // Ground-truth liveness oracle (in-process harnesses only). When every
    // "node" is a thread of one process, OS-scheduler starvation of a
    // peer's *sender* thread is indistinguishable from real silence to a
    // monitor that kept running — no monitor-side compensation can tell
    // them apart, and a false eviction is equivalent to an extra concurrent
    // node death (outside the f=1-over-time recovery contract). The
    // harness, however, knows ground truth: the fault injector is the only
    // thing that can really kill a node or sever a link in-process. When
    // set, a heartbeat-timeout suspicion of `peer` is latched only if the
    // oracle confirms it; otherwise the silence is starvation and the
    // peer's clock resets. Detection of real kills/severs still flows
    // through the genuine wall-clock timeout — the oracle only filters
    // false positives, it never fast-paths detection.
    std::function<bool(NodeId peer)> silence_confirms;
    // Planned drain trigger (fault-plan `drain N after M` wiring): polled by
    // the coordinator's heartbeat tick; a true answer for a live peer starts
    // that peer's graceful drain (once per host — the latch below). Tests
    // and tools may instead call AdminDrain directly.
    std::function<bool(NodeId peer)> drain_requested;
    // Receives SSI console lines (only ever called on node 0's host).
    std::function<void(std::string)> console_sink;
  };

  NodeHost(net::Endpoint* endpoint, int num_nodes, Options options);
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  KernelCore& core() { return core_; }
  NodeId self() const { return core_.self(); }

  // Kernel introspection, serialized against the service and heartbeat
  // threads: eviction (ApplyEviction) mutates kernel stats and the promoted
  // shadow map under core_mu_, so external readers must take it too.
  MetricsSnapshot StatsSnapshot() {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.StatsSnapshot();
  }
  std::vector<proto::PsEntry> PsSnapshot() {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.PsSnapshot();
  }

  // Starts the kernel service thread. Call exactly once.
  void Start();

  // Runs a registered task synchronously on the calling thread as a local
  // DSE process (used to bootstrap the main task). Returns its result.
  std::vector<std::uint8_t> RunLocalTask(const std::string& name,
                                         std::vector<std::uint8_t> arg);

  // Blocks until no task threads are live on this node.
  void WaitTasksDrained();

  // Blocks until the service loop has exited (endpoint shutdown or a
  // Shutdown message). Does not itself stop anything.
  void WaitServiceExit();

  // Sends a Shutdown control message to every node (SSI teardown).
  void BroadcastShutdown();

  // True once the liveness prober declared `node` dead.
  bool PeerDead(NodeId node) const;

  // Planned drain admin verb (docs/recovery.md): broadcasts DrainReq{node}
  // to every live member (the target included) and applies it locally. The
  // drained node hands its homes off to its backup while still serving; the
  // coordinator's heartbeat tick evicts it once the handoff completes and
  // the scheduler is quiesced, and the node then rejoins on the normal
  // re-announce path. No-op with replication off or for a dead/invalid node.
  void AdminDrain(NodeId node);
  // True while `node` is marked draining in this host's kernel view.
  bool NodeDraining(NodeId node) {
    std::lock_guard<std::mutex> lock(core_mu_);
    return core_.NodeDraining(node);
  }

  // Node currently serving `natural`'s homes: identity while replication is
  // off or the node lives, the promoted backup after an eviction.
  NodeId ResolveDst(NodeId natural) const {
    return core_.replication_on() ? core_.RouteOf(natural) : natural;
  }

  // --- internals shared with the Task implementation -----------------------
  struct Waiter;
  std::uint64_t NextReqId();
  void RegisterWaiter(std::uint64_t req_id, Waiter* waiter, NodeId dst);
  // Removes the pending entry. Returns false when another thread already
  // claimed it — the response (or failure) is being delivered and the caller
  // must consume it instead of abandoning the stack-allocated waiter.
  bool DropWaiter(std::uint64_t req_id);
  net::Endpoint& endpoint() { return *endpoint_; }
  // Encodes, counts (per-type + wire bytes) and sends. The single outbound
  // choke point — all kernel and client traffic flows through here so the
  // metrics registry sees every message exactly once. Fails fast with
  // kUnavailable on peers declared dead (Shutdown excepted).
  Status SendEnvelope(NodeId dst, const proto::Envelope& env);
  // Registers a waiter, sends `env`, and blocks for the response under
  // `policy` (per-attempt deadline, bounded resends of the same req_id,
  // exponential backoff). Every failure path surfaces a Status — this call
  // cannot hang unless the policy says block forever AND no failure is
  // detected.
  Result<proto::Envelope> CallAndAwait(NodeId dst, proto::Envelope env,
                                       const CallPolicy& policy);
  // The await half (request already registered and sent once): used by the
  // pipelined CallMany, which issues every request before awaiting any.
  Result<proto::Envelope> AwaitWithRetry(NodeId dst,
                                         const proto::Envelope& env,
                                         Waiter* waiter,
                                         const CallPolicy& policy);
  void FinishLocalTask(Gpid gpid, std::vector<std::uint8_t> result);

 private:
  struct Pending {
    Waiter* waiter = nullptr;
    NodeId dst = -1;  // request destination, for dead-node call failure
  };

  void ServiceLoop();
  // The endpoint's inline sink: completes a client response on the thread
  // that received it when a call waits for it and its sender is not
  // suspected. Declines every other frame, which then takes the service
  // loop (requests, orphans and duplicates, frames from a suspected peer).
  bool CompleteInline(const net::Delivery& delivery);
  // Per-frame receive accounting, on whichever thread handles the frame:
  // per-type and wire-byte counts, and the sender's last-heard stamp.
  void NoteReceived(const proto::Envelope& env, std::uint64_t wire_bytes);
  // Removes and returns the waiter of `req_id`; nullptr when none waits.
  Waiter* ClaimWaiter(std::uint64_t req_id);
  // The one handler of a client response, on the service loop or inline:
  // fills the read cache (epoch-gated), then wakes `waiter` (claimed by the
  // caller; nullptr counts an orphan).
  void CompleteResponse(proto::Envelope env, Waiter* waiter);
  void Perform(KernelCore::Actions actions);
  void StartTaskThread(KernelCore::StartTask st);

  // Resolves a failed send against the pending table: normally returns
  // `error`, but if the response won the race the caller takes it instead.
  Result<proto::Envelope> FailCall(std::uint64_t req_id, Waiter* waiter,
                                   const Status& error);
  // Delivers `error` to every pending call (service loop exited: nothing
  // will ever answer them).
  void FailAllPending(const Status& error);
  // Delivers `error` to every pending call addressed to `dst`.
  void FailPendingTo(NodeId dst, const Status& error);
  void MarkPeerDead(NodeId node, const char* why);
  // Latches `node` suspected-dead and fails its in-flight calls (no
  // membership change yet). Safe to call repeatedly.
  void LatchPeerDead(NodeId node, const char* why);
  // Recovery: latches `node` dead, fails its in-flight calls, applies the
  // membership eviction at `epoch` (0 = this host's next epoch), and — when
  // this host is the coordinator (lowest live rank in its own view) —
  // broadcasts the EvictReq to the survivors. Coordinator succession is
  // implicit: when the old coordinator is the dead node, the next-lowest
  // live rank sees itself as coordinator and speaks.
  //
  // Quorum guard (self-healing membership): a *locally detected* eviction
  // (epoch == 0) is only applied while this host can still reach at least
  // QuorumRequired() members — otherwise it parks (suspicion stays latched,
  // calls fail over and wait, recovery.quorum_parks counts the episode) so
  // a severed minority never forks the membership. Evictions carried by
  // EvictReq/RetryResp gossip (epoch != 0) apply unconditionally.
  void EvictPeer(NodeId node, std::uint32_t epoch, const char* why);
  // Client-side reaction to a kRetryResp epoch bounce: adopt the
  // responder's eviction if it is ahead, push-repair it with an EvictReq if
  // it lags.
  void HandleRetrySignal(NodeId responder, const proto::RetryResp& rr);
  // Re-resolves, re-registers and resends a call after a failover signal.
  // Ok means the waiter will be answered (keep awaiting).
  Status FailoverResend(NodeId natural, proto::Envelope* env, Waiter* waiter);
  void HeartbeatLoop(int period_ms);
  std::int64_t NowMs() const;

  net::Endpoint* endpoint_;
  Options options_;
  KernelCore core_;

  std::mutex core_mu_;  // serializes KernelCore server state
  std::atomic<std::uint64_t> next_req_id_{1};
  std::mutex pending_mu_;
  std::unordered_map<std::uint64_t, Pending> pending_;

  std::thread service_;
  std::mutex service_exit_mu_;
  std::condition_variable service_exit_cv_;
  bool service_exited_ = false;

  // Liveness state. last_heard_ms_[n] is the steady-clock stamp of the last
  // frame received from n; peer_dead_[n] latches once declared — but with
  // replication on, a frame from a suspected peer that is still a cluster
  // member revokes the suspicion (partition heal).
  std::vector<std::atomic<std::int64_t>> last_heard_ms_;
  std::vector<std::atomic<bool>> peer_dead_;
  // Self-healing membership: true while this host is quorum-parked (one
  // recovery.quorum_parks count per episode) / mid-rejoin (guards repeated
  // ResetForRejoin when the coordinator's re-announce retriggers us).
  std::atomic<bool> parked_{false};
  std::atomic<bool> joining_{false};
  // One-shot latch per peer for the drain_requested oracle: the injector's
  // answer stays true after the node drained and rejoined, so without the
  // latch the coordinator would drain it again forever.
  std::vector<std::atomic<bool>> drain_initiated_;
  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  // Pre-resolved counters (rpc.timeout / rpc.retry / node.dead /
  // rpc.inline_resp).
  Counter* rpc_timeouts_ = nullptr;
  Counter* rpc_retries_ = nullptr;
  Counter* nodes_dead_ = nullptr;
  Counter* inline_resps_ = nullptr;

  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  std::vector<std::thread> task_threads_;
  int live_tasks_ = 0;
};

}  // namespace dse
