// The DSE kernel, transport-free.
//
// One KernelCore per node. It is the "parallel processing engine" of the
// paper's Figure 2/3, combining:
//   * the global memory management module (GmmHome),
//   * the parallel process management module (ProcessTable),
//   * the client-side read cache (coherence extension),
//   * the SSI services facade (src/dse/ssi/: console routing, cluster ps,
//     name service, load query, metrics snapshot query).
//
// The backends (ThreadedRuntime, SimRuntime) own the message loop; they feed
// inbound server-side messages into Handle() and carry out the returned
// Actions (sends, local task starts, console lines, shutdown). Client
// *responses* never reach the core — backends route them straight to the
// blocked task — with one exception: block-fetch ReadResps pass through
// CacheInsert() before the task is woken. On the threaded and TCP runtimes
// that may happen on the thread that received the response rather than on
// the service loop; the endpoint's per-source gate (net/inbox.h) offers a
// response there only once every earlier frame from the same home has been
// handled, so a fill still lands after the invalidations that home sent
// before it and before the ones it sends after.
//
// Observability: the core owns the node's MetricsRegistry. Backends count
// per-type message traffic via CountSent/CountRecv and wire bytes via
// CountWireSent/CountWireRecv at their transport choke points;
// StatsSnapshot() merges those live counters with the kernel/GMM stats
// structs into the flat map served over the StatsReq/StatsResp pair.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dse/cluster_options.h"
#include "dse/gmm/home.h"
#include "dse/ids.h"
#include "dse/pm/process_table.h"
#include "dse/proto/messages.h"
#include "dse/sched/scheduler.h"
#include "dse/ssi/services.h"

namespace dse {

// One node's kernel configuration: the shared cluster knobs plus what the
// hosting runtime supplies.
struct KernelOptions : ClusterOptions {
  // On a lossy fabric (fault plan active) a lost BarrierEnter/LockReq/
  // JoinReq frame would block its caller forever, so sync calls resend
  // (same req_id, deduped at the home) on the data-plane deadline —
  // indefinitely, never surfacing kTimeout. Set by KernelOptionsFor.
  bool rpc_sync_retry = false;
  // Validates SpawnReq task names; unknown names fail the spawn with
  // kInvalidArgument instead of crashing the target node.
  std::function<bool(const std::string&)> has_task;
  // True when the named task was registered idempotent (safe to re-spawn
  // after its host node died). Null means nothing is idempotent.
  std::function<bool(const std::string&)> task_idempotent;
  // Lets the backend merge transport-level counters (e.g. the endpoint's
  // wire byte counts) into StatsSnapshot(). May be null.
  std::function<void(MetricsSnapshot*)> augment_stats;
  // Microsecond clock for the scheduler's latency/utilization accounting:
  // virtual time on the simulator, steady_clock on the threaded runtime.
  // Accounting only — never control flow, so determinism is unaffected.
  std::function<std::uint64_t()> now_us;
};

// The kernel options every runtime derives from its cluster knobs; `lossy`
// says the fabric runs a fault plan. The callbacks are the runtime's to set.
KernelOptions KernelOptionsFor(const ClusterOptions& cluster, bool lossy);

struct KernelStats {
  std::uint64_t handled = 0;          // server-side messages processed
  std::uint64_t spawns = 0;
  std::uint64_t spawn_rejects = 0;    // unknown-task spawn requests refused
  std::uint64_t joins = 0;
  std::uint64_t console_lines = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidated = 0;
};

class KernelCore {
 public:
  struct Outgoing {
    NodeId dst;
    proto::Envelope env;
  };
  struct StartTask {
    Gpid gpid;
    std::string task_name;
    std::vector<std::uint8_t> arg;
  };
  struct Actions {
    std::vector<Outgoing> out;
    std::vector<StartTask> start;
    std::vector<std::string> console;  // aggregated lines (node 0)
    bool shutdown = false;

    // Appends `more` after what is already here.
    void Append(Actions more) {
      for (auto& o : more.out) out.push_back(std::move(o));
      for (auto& s : more.start) start.push_back(std::move(s));
      for (auto& c : more.console) console.push_back(std::move(c));
      shutdown = shutdown || more.shutdown;
    }
  };

  KernelCore(NodeId self, int num_nodes, KernelOptions options);

  NodeId self() const { return self_; }
  int num_nodes() const { return num_nodes_; }
  bool read_cache_enabled() const { return options_.read_cache; }
  bool pipelined_transfers() const { return options_.pipelined_transfers; }
  bool batching_enabled() const { return options_.batching; }
  int prefetch_depth() const {
    return options_.read_cache ? options_.prefetch_depth : 0;
  }
  bool write_combine_enabled() const { return options_.write_combine; }
  int rpc_deadline_ms() const { return options_.rpc_deadline_ms; }
  int rpc_max_attempts() const { return options_.rpc_max_attempts; }
  int rpc_backoff_base_ms() const { return options_.rpc_backoff_base_ms; }
  bool rpc_sync_retry() const { return options_.rpc_sync_retry; }

  // --- Recovery / membership (docs/recovery.md) ---------------------------

  // True when primary-backup replication is active on this cluster.
  bool replication_on() const {
    return options_.replication > 0 && num_nodes_ > 1;
  }
  bool restart_tasks() const { return options_.restart_tasks; }
  bool TaskIdempotent(const std::string& name) const {
    return options_.task_idempotent && options_.task_idempotent(name);
  }

  // Membership views for the backend's routing layer (thread-safe; task
  // threads consult them concurrently with the service loop).
  std::uint32_t epoch() const;
  NodeId RouteOf(NodeId natural) const;
  bool NodeAlive(NodeId node) const;
  NodeId CoordinatorView() const;
  // The last membership change here, as the frame that repairs a peer that
  // missed it: the admission whole (a NodeJoinResp with this node's full
  // view), or the EvictReq. Call only past epoch 0.
  proto::Envelope LastChange() const;

  // Applies an eviction locally (coordinator self-apply and push-repair
  // paths; EvictReq frames funnel here too). Caller serializes like Handle.
  // Returns the follow-up actions (lock grants, barrier releases, replies
  // un-gated because their backup died, state-transfer kickoffs that
  // restore f = 1). No-op if already evicted.
  Actions ApplyEviction(NodeId dead, std::uint32_t new_epoch);

  // Reachable members (including self) required before this node may apply
  // a locally detected eviction: --min-quorum if set, else a strict
  // majority of the current membership.
  int QuorumRequired() const;
  // Records the start of one quorum-park episode (recovery.quorum_parks).
  void NoteQuorumPark();
  bool rejoin_enabled() const { return options_.rejoin; }

  // Rejoin, step 1 (the returned node): wipes every piece of kernel state
  // the cluster moved on from — home, shadows, promotions, caches, dedupe
  // and replication ledgers — and marks the node's own home pending until a
  // state-transfer hands it back. Requests for the home bounce (RetryResp)
  // in between. The caller then sends NodeJoinReq to the coordinator.
  void ResetForRejoin();
  bool own_home_pending() const { return own_home_pending_; }

  // Retransmission tick for in-flight state transfers: resends the current
  // unacked chunk of every outgoing transfer and retries deferred transfer
  // starts (a serving home with an invalidation round in flight cannot
  // snapshot). Idempotent — receivers re-ack duplicate chunks.
  Actions TickTransfers();
  // True when no outgoing state transfer is in flight or deferred (the sim's
  // retransmission nudge uses this to know when to stop ticking).
  bool transfers_idle() const {
    return xfer_out_.empty() && xfer_deferred_.empty();
  }

  // --- Planned drain (docs/recovery.md) -----------------------------------

  // True once a DrainReq for `node` has been observed here (cleared by the
  // eviction that completes the drain, or by the node's re-admission).
  bool NodeDraining(NodeId node) const { return draining_.count(node) > 0; }
  // Coordinator-side cutover test: the draining node reported its handoff
  // complete (DrainResp under the current epoch) and the serving scheduler
  // (when hosted here) has no unfinished gang member there. The caller then
  // evicts the node under a bumped epoch — a lossless, planned eviction.
  bool DrainCutoverReady(NodeId node) const;

  // Handles one inbound server-side message (requests, InvalidateReq/Ack,
  // ConsoleOut, Shutdown). Must not be called with client responses.
  Actions Handle(const proto::Envelope& env);

  // Called by the backend when a locally-running task function returns.
  Actions OnLocalTaskExit(Gpid gpid, std::vector<std::uint8_t> result);

  // Registers a locally-bootstrapped task (the main task) without a spawn
  // round trip.
  Gpid RegisterLocalTask(const std::string& name);

  // --- Client read cache (thread-safe; tasks and the response path race in
  // the threaded runtime) -------------------------------------------------

  // Response-path insert of a fetched block.
  void CacheInsert(gmm::GlobalAddr block_base, std::vector<std::uint8_t> data);
  // Task-path lookup; fills [addr, addr+len) from a cached block if present.
  bool CacheLookup(gmm::GlobalAddr addr, std::uint64_t len, void* out);
  // Task-path local update after an acked write (write-update for self).
  void CacheUpdateLocal(gmm::GlobalAddr addr, const void* data,
                        std::uint64_t len);
  // Presence probe that does not touch the hit/miss counters (prefetch
  // planning must not skew demand-cache statistics).
  bool CacheContains(gmm::GlobalAddr block_base) const;
  size_t cache_block_count() const;

  // --- Observability --------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }

  // Per-type traffic accounting (backend transport choke points; atomic).
  void CountSent(proto::MsgType type) {
    msg_sent_[static_cast<size_t>(type)]->Add();
  }
  void CountRecv(proto::MsgType type) {
    msg_recv_[static_cast<size_t>(type)]->Add();
  }
  void CountWireSent(std::uint64_t bytes) {
    net_msgs_sent_->Add();
    net_bytes_sent_->Add(bytes);
    sent_bytes_hist_->Record(static_cast<double>(bytes));
  }
  void CountWireRecv(std::uint64_t bytes) {
    net_msgs_recv_->Add();
    net_bytes_recv_->Add(bytes);
  }

  // Point-in-time merged counter view: live registry counters plus the
  // KernelStats/GmmHomeStats structs (and the backend's augment hook). This
  // is what StatsReq answers with. Thread-safe.
  MetricsSnapshot StatsSnapshot() const;

  // SSI `ps` view of this node's process table (quiescent or externally
  // serialized callers only — backends serialize Handle the same way).
  std::vector<proto::PsEntry> PsSnapshot() const {
    return processes_.Snapshot();
  }

  const KernelStats& stats() const { return stats_; }
  const gmm::GmmHomeStats& gmm_stats() const { return home_.stats(); }
  gmm::GmmHome& home_for_test() { return home_; }
  ssi::SsiServices& ssi_for_test() { return ssi_; }
  // The serving scheduler, or nullptr (disabled / not the scheduler node).
  sched::Scheduler* scheduler() { return sched_.get(); }

 private:
  // At-most-once cache key: (requester node, req_id).
  using DedupeKey = std::pair<NodeId, std::uint64_t>;

  // The pre-dedupe request dispatch (the body of Handle).
  Actions Dispatch(const proto::Envelope& env);
  void HandleInvalidate(const proto::Envelope& env, Actions* actions);

  // Turns scheduler start directives into local process starts (self) or
  // one-way JobStartReq frames (remote hosts).
  void ApplyStarts(std::vector<sched::Start> starts, Actions* actions);
  // Creates a local process for one gang member and tags its gpid so exit
  // routes a completion report back to the scheduler.
  void StartJobMember(std::uint64_t job_id, std::uint32_t member,
                      const std::string& task_name,
                      std::vector<std::uint8_t> arg, NodeId origin,
                      Actions* actions);

  // At-most-once execution: moves responses to in-progress mutating
  // requests into the completed cache so a retried request (same src,
  // req_id) replays the original response instead of re-executing.
  void HarvestResponses(Actions* actions);

  // --- Recovery internals -------------------------------------------------

  // Natural home of a GMM-routed request, or -1 for unrouted types.
  NodeId NaturalHomeOf(const proto::Envelope& env) const;
  // The GmmHome currently serving `natural` on this node: the node's own
  // home, or a promoted shadow. nullptr if this node does not serve it.
  gmm::GmmHome* ServingHome(NodeId natural);
  // Runs a GMM request against an arbitrary home object (the normal home on
  // the primary, shadows on the backup). Returns false for non-GMM types.
  bool DispatchGmm(gmm::GmmHome& home, const proto::Envelope& env,
                   Actions* actions);
  // True for mutating GMM requests a primary forwards to its backup.
  static bool ReplicationNeeded(const proto::Envelope& env);
  // Forwards `env` to this home's backup and gates the client replies in
  // `actions` until the backup acks.
  void ForwardToBackup(const proto::Envelope& env, Actions* actions);
  // Withholds client responses whose origin request is still gated on a
  // backup ack (covers replies deferred behind invalidation rounds).
  void HoldGatedResponses(Actions* actions);
  // A duplicate of an in-flight request doubles as the retransmission
  // trigger for the replication record its reply is gated on.
  void ResendGatedFor(const DedupeKey& key, Actions* actions);

  // Re-stamps every pending replication record with the current epoch.
  // Must run after every membership-epoch bump (eviction or admission):
  // the backup's record fence drops stale-stamped retransmissions, so a
  // record forwarded just before the bump could otherwise never be acked.
  void RestampPendingRecords();
  void HandleReplicate(const proto::Envelope& env, Actions* actions);
  void HandleReplicateAck(const proto::Envelope& env, Actions* actions);
  // Self-healing membership (docs/recovery.md).
  void HandleNodeJoinReq(const proto::Envelope& env, Actions* actions);
  void HandleNodeJoinResp(const proto::Envelope& env, Actions* actions);
  void HandleStateChunk(const proto::Envelope& env, Actions* actions);
  void HandleStateChunkAck(const proto::Envelope& env, Actions* actions);
  // Planned drain (docs/recovery.md): every member marks the node draining
  // (the scheduler node also stops placing work there); the drained node
  // itself starts the proactive handoff.
  void HandleDrainReq(const proto::Envelope& env, Actions* actions);
  // Coordinator side: records the draining node's handoff-complete report.
  void HandleDrainResp(const proto::Envelope& env, Actions* actions);
  // The draining node: stream every home it serves to its ring successor
  // while *continuing to serve* (demote=false) — mutations acked during the
  // copy are forwarded as normal replication records, which the receiver
  // buffers and replays on top of the snapshot. An already in-flight
  // transfer of the same home to the same target is tagged rather than
  // restarted (a same-epoch restart would trip the receiver's duplicate-
  // chunk-0 detection).
  void StartDrainHandoff(Actions* actions);
  // Local side effects of node's re-admission on every member: drop the
  // stale routing cache and shadow, hand a held home back to its returned
  // owner, and re-replicate to a changed ring successor.
  void OnAdmitted(NodeId node, bool was_holder, NodeId old_backup,
                  Actions* actions);
  // Begins (or defers, while an invalidation round is in flight) streaming
  // the home serving `primary` to `target`. `demote`: on completion the
  // sender stops serving and keeps the state as a shadow (rejoin handoff).
  void StartTransfer(NodeId primary, NodeId target, bool demote,
                     Actions* actions, bool drain = false);
  // Emits the current chunk of an outgoing transfer.
  void SendChunk(NodeId primary, Actions* actions);
  // Applies a fully received transfer blob (own home for a rejoining node,
  // a fresh shadow otherwise) plus the live records buffered behind it.
  void InstallTransfer(NodeId primary, Actions* actions);
  // Records a shadow-produced client response for post-promotion replay.
  void RecordShadowResponse(NodeId primary, NodeId dst,
                            proto::Envelope env);
  proto::Envelope MakeRetryResp(const proto::Envelope& req) const;
  // NodeJoinResp{node, epoch, our alive bitmap}. Caller holds route_mu_.
  proto::Envelope MakeAdmission(NodeId node, std::uint32_t epoch) const;

  NodeId self_;
  int num_nodes_;
  KernelOptions options_;

  gmm::GmmHome home_;
  pm::ProcessTable processes_;

  mutable std::mutex cache_mu_;
  std::unordered_map<gmm::GlobalAddr, std::vector<std::uint8_t>> cache_;

  MetricsRegistry metrics_;
  // Pre-resolved counter handles so the hot paths never take the registry
  // mutex. Indexed by the raw MsgType value (1..kMaxMsgType).
  std::array<Counter*, proto::kMaxMsgType + 1> msg_sent_{};
  std::array<Counter*, proto::kMaxMsgType + 1> msg_recv_{};
  Counter* net_msgs_sent_ = nullptr;
  Counter* net_bytes_sent_ = nullptr;
  Counter* net_msgs_recv_ = nullptr;
  Counter* net_bytes_recv_ = nullptr;
  Histogram* sent_bytes_hist_ = nullptr;

  ssi::SsiServices ssi_;

  // At-most-once request cache. `completed_` holds the response envelope of
  // each finished mutating request inside a FIFO window; `in_progress_`
  // marks requests whose response is still deferred (e.g. a write ack
  // behind an invalidation round) so duplicates are dropped rather than
  // re-executed.
  std::map<DedupeKey, proto::Envelope> completed_;
  std::deque<DedupeKey> completed_order_;
  std::set<DedupeKey> in_progress_;
  Counter* dedupe_replays_ = nullptr;
  Counter* dedupe_drops_ = nullptr;

  // --- Recovery state (docs/recovery.md) ----------------------------------

  // Membership map; guarded by route_mu_ because task threads consult the
  // routing view while the service loop applies evictions.
  mutable std::mutex route_mu_;
  gmm::HomeMap home_map_;

  // Primary side: replication records in flight to the backup, keyed by the
  // per-primary sequence number, with the client replies gated on the ack.
  struct PendingRepl {
    NodeId backup = -1;
    proto::Envelope record;        // resendable ReplicateReq envelope
    DedupeKey origin{-1, 0};       // requester of the replicated mutation
    std::vector<Outgoing> held;    // replies withheld until the ack
  };
  std::uint64_t repl_next_seq_ = 1;
  std::map<std::uint64_t, PendingRepl> repl_pending_;
  std::map<DedupeKey, std::uint64_t> repl_gated_;  // origin -> seq

  // Backup side: one shadow home per primary this node backs, plus the
  // client responses the shadow produced (replayed into the dedupe cache on
  // promotion so in-flight retries see original results, not re-execution).
  struct ShadowHome {
    std::unique_ptr<gmm::GmmHome> home;
    std::map<DedupeKey, proto::Envelope> completed;
    std::deque<DedupeKey> completed_order;
    std::set<std::uint64_t> seen;  // applied record seqs (re-ack, not re-run)
    std::deque<std::uint64_t> seen_order;
    // Records that arrived before the state transfer that seeds this shadow
    // (its first chunk and the records race on separate sender threads).
    // Acked on arrival, applied right after the blob installs — before the
    // mid-transfer records buffered in IncomingTransfer — so the replica
    // replays the exact arrival order. Only populated at epoch > 0: past
    // the first membership change, every fresh record stream is preceded
    // by a transfer, so a record with no installed base state means the
    // blob is still in flight, never that there is no blob at all.
    std::vector<proto::Envelope> pending_records;
    // Seeded by a planned drain handoff (a snapshot streamed by a still-
    // alive, still-serving primary): the later adoption of this shadow is
    // counted as recovery.drains, not recovery.promotions — the eviction
    // that completes the drain loses nothing by construction.
    bool drain_ready = false;
  };
  std::map<NodeId, ShadowHome> shadows_;
  // Promoted shadows now serving a dead primary's key space.
  std::map<NodeId, std::unique_ptr<gmm::GmmHome>> promoted_;

  // --- State transfer (self-healing membership) ---------------------------

  // Outgoing transfer of one home's serialized state, keyed by the natural
  // primary. Ack-paced: one chunk in flight, advanced by StateChunkResp.
  struct OutgoingTransfer {
    NodeId target = -1;
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> blob;
    std::uint32_t next = 0;   // index of the chunk currently in flight
    std::uint32_t total = 0;
    bool demote = false;      // rejoin handoff: keep the state as a shadow
    bool drain = false;       // planned drain handoff (recovery.handoff.*)
  };
  std::map<NodeId, OutgoingTransfer> xfer_out_;
  // Transfer starts deferred behind an in-flight invalidation round.
  struct DeferredTransfer {
    NodeId primary = -1;
    NodeId target = -1;
    bool demote = false;
    bool drain = false;
  };
  std::vector<DeferredTransfer> xfer_deferred_;
  // Incoming transfer reassembly, keyed by the natural primary. Live
  // ReplicateReq records arriving mid-transfer are acked and buffered, then
  // applied in arrival order once the blob installs.
  struct IncomingTransfer {
    std::uint32_t epoch = 0;
    std::uint32_t total = 0;
    std::vector<std::uint8_t> blob;   // chunks received so far, concatenated
    std::uint32_t received = 0;
    std::vector<proto::Envelope> buffered;  // ReplicateReq frames
    // Sender (captured at chunk 0). If the sender dies mid-transfer, the
    // buffered records must be replayed onto the pre-existing shadow before
    // promotion (ApplyEviction) — they were acked, and the aborted blob can
    // no longer carry them.
    NodeId from = -1;
  };
  std::map<NodeId, IncomingTransfer> xfer_in_;
  // Epoch of the last fully-installed incoming transfer per primary. The
  // sender retransmits on its tick whenever the ack is merely slow, so a
  // duplicate chunk 0 can arrive AFTER the install erased xfer_in_. Without
  // this record the duplicate would re-open the transfer and re-install the
  // stale snapshot over a shadow that live records have since moved past —
  // a silent rollback that the next failover promotes (or, multi-chunk, a
  // shadow wedged in buffer-don't-apply mode forever). Duplicates of an
  // installed transfer are re-acked and dropped instead. A genuinely new
  // transfer for the same primary always runs under a bumped epoch (every
  // start follows a membership change), so epoch equality is the test.
  std::map<NodeId, std::uint32_t> xfer_installed_;
  // Rejoin: this node's own home is empty until its previous holder streams
  // the state back; requests for it bounce with RetryResp meanwhile.
  bool own_home_pending_ = false;

  // Planned drain (docs/recovery.md). Every member mirrors the draining set
  // from the DrainReq broadcast; drain_ready_ is coordinator-side only (the
  // draining nodes whose handoff-complete DrainResp has arrived). Both are
  // cleared by the eviction that completes the drain or by re-admission.
  std::set<NodeId> draining_;
  std::set<NodeId> drain_ready_;

  Counter* repl_forwards_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* promotions_ = nullptr;
  Counter* replayed_ = nullptr;
  Counter* epoch_bounces_ = nullptr;
  Counter* rereplications_ = nullptr;
  Counter* rejoins_ = nullptr;
  Counter* quorum_parks_ = nullptr;
  Counter* xfer_chunks_ = nullptr;
  Counter* xfer_bytes_ = nullptr;
  // Planned-drain ledger: homes adopted over the drain handoff (the planned
  // counterpart of recovery.promotions) and the handoff's share of the state
  // transfer traffic.
  Counter* drains_ = nullptr;
  Counter* handoff_chunks_ = nullptr;
  Counter* handoff_bytes_ = nullptr;

  // --- Serving front door (docs/scheduling.md) ----------------------------

  // Present only on the scheduler node (node 0) with sched.enabled.
  std::unique_ptr<sched::Scheduler> sched_;
  // Local gang members: gpid -> which job/member it is and which node's
  // scheduler wants the completion report.
  struct JobTag {
    std::uint64_t job_id = 0;
    std::uint32_t member = 0;
    NodeId origin = -1;
  };
  std::map<Gpid, JobTag> job_tags_;

  KernelStats stats_;
};

}  // namespace dse
