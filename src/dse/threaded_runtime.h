// The real (concurrent) DSE runtime: N kernels in one process, one OS thread
// per kernel service loop and one per DSE process (task), connected by the
// in-process fabric. This is the functional runtime — the paper's software
// organization with the kernel linked into the application as a library —
// used by examples, tests and the primitive micro-benchmarks.
//
// For a cluster of separate UNIX processes over TCP (the paper's actual
// deployment shape), see process_runtime.h, which hosts one kernel per OS
// process on the same NodeHost machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dse/kernel_core.h"
#include "dse/node_host.h"
#include "dse/registry.h"
#include "net/fault.h"

namespace dse {

struct ThreadedOptions : ClusterOptions {
  int num_nodes = 4;
  // Deterministic fault injection on the in-process fabric (net/fault.h).
  // When the plan enables at least one fault, every node's endpoint is
  // wrapped in a FaultyEndpoint sharing one injector, and the fabric counts
  // as lossy (NodeHost::Options::lossy).
  net::FaultPlan fault_plan = {};
  HeartbeatOptions heartbeat;
  // Liveness oracle (docs/fault_model.md): before latching a
  // heartbeat-timeout suspicion, ask the fault injector whether the peer is
  // really killed or severed; unconfirmed silence (an OS-starved sender
  // thread — every "node" here is a thread of one process) resets the
  // timer instead of manufacturing a false eviction. Detection of real
  // faults keeps its genuine wall-clock latency. Off = raw timeouts, the
  // semantics a multi-process deployment would have.
  bool liveness_oracle = true;
};

class ThreadedRuntime {
 public:
  explicit ThreadedRuntime(ThreadedOptions options);
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  TaskRegistry& registry() { return registry_; }
  int num_nodes() const { return options_.num_nodes; }

  // Runs `main_name` (a registered task) as the main DSE process on node 0
  // and blocks until every task in the cluster has finished. Returns the
  // main task's result bytes. Callable repeatedly.
  std::vector<std::uint8_t> RunMain(const std::string& main_name,
                                    std::vector<std::uint8_t> arg = {});

  // Wall-clock seconds of the most recent RunMain.
  double last_run_seconds() const { return last_run_seconds_; }

  // Console lines routed to node 0 during the most recent run.
  const std::vector<std::string>& last_console() const {
    return last_console_;
  }

  const KernelStats& kernel_stats(NodeId node) const;
  const gmm::GmmHomeStats& gmm_stats(NodeId node) const;
  size_t cache_block_count(NodeId node) const;

  // SSI introspection: per-node metrics snapshots (index == NodeId) and the
  // cluster-wide process listing, read directly from the kernels. Call when
  // the cluster is quiescent (e.g. after RunMain returns).
  std::vector<MetricsSnapshot> ClusterStats() const;
  std::vector<proto::PsEntry> Ps() const;
  // Histograms merged across all nodes.
  std::map<std::string, RunningStats> ClusterHistograms() const;

  // Injected-fault tallies (empty when no fault plan is active).
  MetricsSnapshot FaultCounters() const;
  // True once the fault injector's kill schedule fired for `node`.
  bool NodeKilled(NodeId node) const;
  // Kills `node` immediately through the fault injector (requires an active
  // fault plan). Used by tests that stage a second death after observing
  // re-replication complete.
  void KillNode(NodeId node);

  // Starts a graceful drain of `node` through node 0's admin verb
  // (docs/recovery.md). The cutover (planned eviction + rejoin) is driven
  // by the coordinator's heartbeat tick, so the prober must be active
  // (a fault plan, or heartbeat.period_ms > 0) for the drain to complete.
  void DrainNode(NodeId node);
  // True while node 0's membership view marks `node` draining.
  bool NodeDraining(NodeId node);

 private:
  struct Fabric;
  ThreadedOptions options_;
  TaskRegistry registry_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<net::FaultInjector> fault_;
  std::vector<std::unique_ptr<net::FaultyEndpoint>> faulty_endpoints_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;

  std::mutex console_mu_;
  std::vector<std::string> console_;

  double last_run_seconds_ = 0;
  std::vector<std::string> last_console_;
};

}  // namespace dse
