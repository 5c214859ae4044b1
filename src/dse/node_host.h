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
#include "dse/recovery/membership.h"
#include "dse/registry.h"
#include "dse/task.h"
#include "net/endpoint.h"

namespace dse {

class NodeHost {
 public:
  struct Options : ClusterOptions {
    TaskRegistry* registry = nullptr;            // required
    // The fabric under this host may lose frames (its runtime runs a fault
    // plan): sync calls resend on the data-plane deadline
    // (KernelOptionsFor) and the heartbeat prober defaults on.
    bool lossy = false;
    HeartbeatOptions heartbeat;
    // Planned drain trigger (fault-plan `drain N after M` wiring), polled by
    // the coordinator's membership tick (recovery::Membership::Options).
    // Tests and tools may instead call AdminDrain directly.
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

  // True once the membership layer declared `node` dead.
  bool PeerDead(NodeId node) const { return membership_.Suspected(node); }

  // Planned drain admin verb (docs/recovery.md): broadcasts DrainReq{node}
  // to every live member (the target included) and applies it locally. The
  // drained node hands its homes off to its backup while still serving; the
  // coordinator's membership tick evicts it once the handoff completes and
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
  void NoteReceived(const proto::Envelope& env, std::uint64_t wire_bytes,
                    std::int64_t now_ms);
  // Removes and returns the waiter of `req_id`; nullptr when none waits.
  Waiter* ClaimWaiter(std::uint64_t req_id);
  // The one handler of a client response, on the service loop or inline:
  // fills the read cache (epoch-gated), then wakes `waiter` (claimed by the
  // caller; nullptr counts an orphan).
  void CompleteResponse(proto::Envelope env, Waiter* waiter);
  void Perform(KernelCore::Actions actions);
  // Fails the in-flight calls of every peer the membership layer newly
  // declared dead, then performs its envelopes and kernel follow-ups.
  void Perform(recovery::Membership::Actions actions);
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

  // The membership protocol: failure detector, quorum guard, eviction,
  // rejoin and drain duties. Its last-heard stamps and suspicion latches are
  // relaxed atomics, read and written on the per-frame path without a lock.
  recovery::Membership membership_;
  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;

  // Pre-resolved counters (rpc.timeout / rpc.retry / rpc.inline_resp).
  Counter* rpc_timeouts_ = nullptr;
  Counter* rpc_retries_ = nullptr;
  Counter* inline_resps_ = nullptr;

  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  std::vector<std::thread> task_threads_;
  int live_tasks_ = 0;
};

}  // namespace dse
