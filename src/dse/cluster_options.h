// The kernel knobs every runtime shares.
//
// One cluster configuration runs unchanged on the simulator, the threaded
// runtime and the TCP process runtime. Each knob is declared here once, with
// its default and its meaning. KernelOptions, NodeHost::Options and the
// runtimes' options (ThreadedOptions, ProcessOptions, SimOptions) inherit
// this struct and add only what is their own, so a runtime hands the knobs
// on with one assignment of the base.
#pragma once

#include "common/status.h"
#include "dse/sched/scheduler.h"

namespace dse {

struct ClusterOptions {
  // Enables the client read cache + home copyset/invalidation protocol.
  bool read_cache = false;
  // Split-transaction transfers: multi-chunk accesses issue all their
  // requests before waiting (latency hiding; an extension beyond the
  // paper's strictly request/response DSE).
  bool pipelined_transfers = false;
  // Fast path: coalesce the sub-accesses of one logical Read/Write that are
  // homed on the same node into a single BatchReq envelope (one protocol
  // overhead per destination instead of per access).
  bool batching = false;
  // Fast path: on an ascending sequential block stride, read ahead this many
  // coherence blocks into the client read cache. 0 disables. Requires
  // read_cache (ignored otherwise).
  int prefetch_depth = 0;
  // Fast path: buffer small writes in the client and flush the combined
  // spans at synchronization points (barrier/lock/atomic/read-overlap) —
  // release consistency at sync instead of per-write round trips.
  bool write_combine = false;
  // Failure-aware data plane: per-attempt deadline and bounded retries for
  // the client's data-plane calls (read/write/atomic/alloc/free/spawn and
  // the SSI queries). 0 deadline = wait forever. Retries resend the same
  // req_id; the kernel's at-most-once cache dedupes the replays.
  // Synchronization calls (lock/barrier/join) never time out — they block
  // by design — but still fail fast on dead peers and shutdown. On the
  // simulator the deadline is virtual time.
  int rpc_deadline_ms = 10000;
  int rpc_max_attempts = 3;
  int rpc_backoff_base_ms = 5;  // exponential: base, 2x, 4x, ... (0: none)
  // Recovery subsystem (docs/recovery.md): replication factor for GMM home
  // state. 0 disables recovery entirely (a dead node's state is lost); 1
  // gives each home a backup at the next live ring successor — mutating
  // requests are forwarded as ReplicateReq records and the client reply is
  // gated on the backup's ack, so an acknowledged mutation survives the
  // primary's death.
  int replication = 0;
  // With replication: after an eviction, re-spawn idempotent-marked tasks
  // that were hosted on the dead node instead of failing their joins.
  bool restart_tasks = false;
  // Self-healing membership (docs/recovery.md): minimum number of reachable
  // members (including self) a node needs before it may apply a *locally
  // detected* eviction. 0 means a strict majority of the current
  // membership. A node below the threshold parks instead of evicting.
  int min_quorum = 0;
  // Self-healing membership: whether the coordinator re-admits evicted
  // nodes that ask to rejoin (NodeJoinReq). Off, a returned node stays
  // parked outside the cluster forever.
  bool rejoin = true;
  // Serving front door (docs/scheduling.md): when enabled, node 0 hosts the
  // multi-tenant job scheduler behind JobSubmitReq/JobStartReq/JobDoneReq.
  sched::Config sched = {};
};

// A lossy fabric (a runtime running a fault plan) needs a finite rpc
// deadline: the deadline is what turns a lost frame into a retry or a
// kTimeout, and without one its caller would wait forever.
inline Status CheckLossyDeadline(const ClusterOptions& options, bool lossy) {
  if (lossy && options.rpc_deadline_ms <= 0) {
    return InvalidArgument("a fault plan requires a finite rpc deadline");
  }
  return Status::Ok();
}

}  // namespace dse
