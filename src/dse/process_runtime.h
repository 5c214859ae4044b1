// The distributed deployment of DSE: one kernel per UNIX process, full TCP
// mesh between nodes — the shape the paper actually ran on its workstation
// LANs. Every process links the same binary (kernel library + application),
// exactly the unified organization the paper contributes.
//
// Usage (one process per node):
//   ProcessRuntime rt(my_node_id, {{host,port}, ...}, options);
//   rt.registry().Register("worker", ...);
//   if (my_node_id == 0) rt.RunMainAndShutdown("main", arg);   // master
//   else                 rt.ServeUntilShutdown();              // workers
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dse/node_host.h"
#include "dse/registry.h"
#include "net/fault.h"
#include "net/tcp_fabric.h"

namespace dse {

struct ProcessOptions : ClusterOptions {
  int connect_timeout_ms = 10000;
  // Deterministic fault injection on this node's TCP sends (net/fault.h).
  // Each process owns its own injector, so a cluster-wide plan means "every
  // node runs this plan on its outbound links" — per-link decision streams
  // still replay identically because they derive only from (seed, src, dst).
  net::FaultPlan fault_plan = {};
  HeartbeatOptions heartbeat;
};

class ProcessRuntime {
 public:
  // Connects the TCP mesh (blocking rendezvous with every peer). The kernel
  // does not serve requests until RunMainAndShutdown / ServeUntilShutdown —
  // register every task function in between; inbound messages queue.
  static Result<std::unique_ptr<ProcessRuntime>> Create(
      NodeId self, std::vector<net::TcpNodeAddr> nodes,
      ProcessOptions options = {});

  ~ProcessRuntime();

  TaskRegistry& registry() { return registry_; }
  NodeId self() const { return host_->self(); }
  int num_nodes() const { return host_->core().num_nodes(); }

  // Master (node 0): runs the main task, waits for the local cluster to
  // drain, then broadcasts shutdown so worker processes exit. Returns the
  // main task's result.
  std::vector<std::uint8_t> RunMainAndShutdown(const std::string& main_name,
                                               std::vector<std::uint8_t> arg);

  // Workers: serve kernel requests and spawned tasks until the master's
  // shutdown arrives, then drain local tasks.
  void ServeUntilShutdown();

  // Console lines routed here (meaningful on node 0).
  const std::vector<std::string>& console() const { return console_; }

  // Injected-fault tallies for this process's sends (empty without a plan).
  MetricsSnapshot FaultCounters() const {
    return fault_ ? fault_->Counters() : MetricsSnapshot{};
  }

 private:
  ProcessRuntime() = default;

  TaskRegistry registry_;
  std::unique_ptr<net::TcpFabricEndpoint> endpoint_;
  std::unique_ptr<net::FaultInjector> fault_;
  std::unique_ptr<net::FaultyEndpoint> faulty_endpoint_;
  std::unique_ptr<NodeHost> host_;
  std::vector<std::string> console_;
};

}  // namespace dse
