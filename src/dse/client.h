// Client-side request logic shared by both runtimes.
//
// This is the paper's Parallel API library interior: it builds request
// messages, splits accesses at home and coherence-block boundaries, consults
// the node's read cache, and analyzes responses. The backend supplies only
// the blocking transport (RpcChannel) — everything protocol-shaped lives
// here once.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dse/gmm/addr.h"
#include "dse/ids.h"
#include "dse/kernel_core.h"
#include "dse/task.h"
#include "dse/proto/messages.h"

namespace dse {

// Failure policy for one blocking call. The backend waits `deadline_ms` per
// attempt (0 = forever) and retries up to `max_attempts` total sends of the
// SAME req_id with exponential backoff between attempts; the kernel's
// at-most-once cache makes the resends safe for mutating requests. On final
// failure the call surfaces kTimeout (no answer) or kUnavailable (peer
// known dead / channel shut down) instead of hanging.
struct CallPolicy {
  int deadline_ms = 0;      // per-attempt wait; 0 = block forever
  int max_attempts = 1;     // total sends (1 = no retry)
  // Sleep base between attempts: base, 2x, 4x, ... (0 = resend at once).
  int backoff_base_ms = 5;
};

// Backend-provided blocking message channel for one task.
class RpcChannel {
 public:
  virtual ~RpcChannel() = default;

  // Sends `body` to node `dst`'s kernel and blocks for the response with the
  // matching req_id, observing `policy`'s deadline/retry budget.
  virtual Result<proto::Envelope> Call(NodeId dst, proto::Body body,
                                       const CallPolicy& policy = {}) = 0;

  // Split-transaction variant: issues every request before waiting for any
  // response, hiding round-trip latency behind each other. Responses are
  // returned in request order. The default implementation degrades to
  // serial Calls; backends override with true pipelining.
  virtual Result<std::vector<proto::Envelope>> CallMany(
      std::vector<std::pair<NodeId, proto::Body>> calls,
      const CallPolicy& policy = {}) {
    std::vector<proto::Envelope> out;
    out.reserve(calls.size());
    for (auto& [dst, body] : calls) {
      auto resp = Call(dst, std::move(body), policy);
      if (!resp.ok()) return resp.status();
      out.push_back(std::move(*resp));
    }
    return out;
  }

  // One-way message (no response expected).
  virtual Status Post(NodeId dst, proto::Body body) = 0;
};

class TaskClient {
 public:
  // `core` is the local node's kernel (for the read cache); `rpc` is this
  // task's channel.
  TaskClient(RpcChannel* rpc, KernelCore* core);

  // Flushes any write-combined spans still buffered: a task that returns
  // without reaching a sync point must not lose its writes.
  ~TaskClient();

  Result<gmm::GlobalAddr> AllocStriped(std::uint64_t size,
                                       std::uint8_t block_log2);
  Result<gmm::GlobalAddr> AllocOnNode(std::uint64_t size, NodeId home);
  Status Free(gmm::GlobalAddr addr);

  Status Read(gmm::GlobalAddr addr, void* out, std::uint64_t len);
  Status Write(gmm::GlobalAddr addr, const void* src, std::uint64_t len);

  // Sends every buffered write-combined span to its home and blocks until
  // all are acked. No-op unless write combining is on and spans are
  // buffered. Called automatically at sync points (lock/unlock/barrier/
  // atomic/free/spawn/join/publish), on a read that overlaps a buffered
  // span, when the buffer exceeds its capacity, and at task exit.
  Status FlushWrites();
  Result<std::int64_t> AtomicFetchAdd(gmm::GlobalAddr addr,
                                      std::int64_t delta);
  Result<std::int64_t> AtomicCompareExchange(gmm::GlobalAddr addr,
                                             std::int64_t expected,
                                             std::int64_t desired);

  Status Lock(std::uint64_t lock_id);
  Status Unlock(std::uint64_t lock_id);
  Status Barrier(std::uint64_t barrier_id, int parties);

  Result<Gpid> Spawn(const std::string& task_name,
                     std::vector<std::uint8_t> arg, NodeId node_hint);
  Result<std::vector<std::uint8_t>> Join(Gpid gpid);

  Status Print(Gpid gpid, const std::string& text);
  Result<std::vector<proto::PsEntry>> ClusterPs();
  // One StatsReq round trip per node; index in the result == NodeId.
  Result<std::vector<MetricsSnapshot>> ClusterStats();
  Status PublishName(const std::string& name, std::uint64_t value);
  Result<std::uint64_t> LookupName(const std::string& name);

  // Serving front door (docs/scheduling.md): submits a fire-and-forget
  // gang job to the cluster scheduler on node 0. Returns the job id;
  // kResourceExhausted when admission shed it, kInvalidArgument for an
  // unknown task or impossible gang, kFailedPrecondition with no scheduler.
  Result<std::uint64_t> SubmitJob(std::uint32_t tenant,
                                  const std::string& task_name,
                                  std::vector<std::uint8_t> arg,
                                  std::uint32_t gang, NodeId locality_hint);
  // The scheduler's counter ledger (sched.* totals, live gauges, derived
  // latency percentiles) — the drain-polling / bench surface.
  Result<std::map<std::string, std::uint64_t>> SchedStat();

 private:
  int num_nodes() const { return core_->num_nodes(); }
  // Policy for data-plane calls (reads/writes/atomics/alloc/free/spawn and
  // SSI queries): bounded wait + retries from KernelOptions. Synchronization
  // calls (lock/barrier/join) use SyncPolicy() instead — they wait on other
  // tasks, not just the network, so they must never surface kTimeout — and
  // rely on dead-node detection to fail.
  CallPolicy DataPolicy() const {
    CallPolicy p;
    p.deadline_ms = core_->rpc_deadline_ms();
    p.max_attempts = core_->rpc_max_attempts();
    p.backoff_base_ms = core_->rpc_backoff_base_ms();
    return p;
  }
  // Block-forever by default. With a lossy fabric (KernelOptions::
  // rpc_sync_retry) the deadline instead paces *resends* of the same req_id
  // — a lost LockReq/BarrierEnter/JoinReq would otherwise hang forever —
  // with effectively unbounded attempts so the call still never times out.
  CallPolicy SyncPolicy() const {
    CallPolicy p;
    if (core_->rpc_sync_retry()) {
      p.deadline_ms = core_->rpc_deadline_ms();
      p.max_attempts = 1 << 30;
      p.backoff_base_ms = 0;  // the deadline itself paces the resends
    }
    return p;
  }
  NodeId LockHome(std::uint64_t id) const {
    return static_cast<NodeId>(id % static_cast<std::uint64_t>(num_nodes()));
  }

  // Splits an access into per-home chunks; with caching on, further splits
  // at coherence-block boundaries so each piece maps to exactly one block.
  std::vector<gmm::Chunk> SplitForAccess(gmm::GlobalAddr addr,
                                         std::uint64_t len) const;

  // One read-path request: a demand cache miss (copied into the caller's
  // buffer) or a read-ahead block (cache-filled on the response path only).
  struct ReadItem {
    gmm::Chunk c;
    bool cacheable = false;  // request block widening + copyset tracking
    bool prefetch = false;
  };

  // A buffered write-combined span (contiguous, single home; single
  // coherence block when the cache/coherence protocol is on).
  struct WcSpan {
    std::vector<std::uint8_t> data;
    NodeId home = -1;
  };

  // Detects an ascending sequential block stride and appends up to
  // `prefetch_depth` read-ahead blocks to `items`.
  void PlanPrefetch(gmm::GlobalAddr addr, std::uint64_t len,
                    std::vector<ReadItem>* items);
  // Settles the prefetch ledger for a demand lookup on `block_base`.
  void NotePrefetchLookup(gmm::GlobalAddr block_base, bool hit);

  // Issues the read items (grouped per home into BatchReqs when batching is
  // on, pipelined across homes via CallMany) and copies demand replies into
  // `dst`.
  Status DispatchReads(const std::vector<ReadItem>& items, std::uint8_t* dst);

  // Issues prepared write calls (WriteReq or BatchReq bodies; batch_sizes[i]
  // is the item count of call i, 0 for a plain WriteReq) and verifies acks.
  Status DispatchWriteCalls(std::vector<std::pair<NodeId, proto::Body>> calls,
                            const std::vector<std::uint32_t>& batch_sizes);

  // Builds per-home write calls from chunks referencing `p` and dispatches.
  Status SendWriteChunks(const std::vector<gmm::Chunk>& chunks,
                         const std::uint8_t* p);

  // Write-combining buffer.
  void BufferWrite(const gmm::Chunk& c, const std::uint8_t* data);
  bool OverlapsBuffered(gmm::GlobalAddr addr, std::uint64_t len) const;

  // Restart-tasks ledger: what this task spawned, so a join that fails with
  // kUnavailable (host node evicted) can re-spawn an idempotent task on a
  // survivor. Only populated when the restart_tasks knob is on.
  struct SpawnRecord {
    std::string name;
    std::vector<std::uint8_t> arg;
    NodeId node = -1;  // node the task was placed on
  };

  RpcChannel* rpc_;
  KernelCore* core_;
  int spawn_rr_;

  // Sequential-stream detector state for read-ahead.
  gmm::GlobalAddr next_expected_block_ = 0;
  int streak_ = 0;
  // Blocks fetched ahead and not yet demanded (settles hits vs wasted).
  std::set<gmm::GlobalAddr> prefetched_;

  // Write-combining buffer: span start -> span. std::map so flushes walk in
  // address order (deterministic in the sim).
  std::map<gmm::GlobalAddr, WcSpan> wc_;
  std::uint64_t wc_bytes_ = 0;

  std::map<Gpid, SpawnRecord> spawned_;

  // Client-side access counters, pre-resolved from the node's registry so
  // the data path never takes the registry mutex.
  Counter* reads_;
  Counter* writes_;
  Counter* atomics_;
  Counter* remote_misses_;   // read chunks served by a remote home
  Counter* lock_requests_;   // sync points entered (waits counted home-side)
  Counter* barrier_enters_;
  Counter* batch_sent_;      // BatchReq envelopes issued
  Counter* batch_sent_items_;
  Counter* batch_saved_msgs_;  // envelopes avoided vs the serial path
  Counter* prefetch_issued_;
  Counter* prefetch_hits_;
  Counter* prefetch_wasted_;  // prefetched block invalidated before use
  Counter* wc_writes_buffered_;
  Counter* wc_merges_;
  Counter* wc_flushes_;
  Counter* wc_flushed_spans_;
  Counter* task_restarts_;  // idempotent tasks re-spawned after eviction
};

}  // namespace dse
