// In-process fabric: N endpoints backed by per-node blocking queues.
//
// This is the transport the ThreadedRuntime uses when all DSE nodes live in
// one address space (one OS thread per node) — the fastest configuration and
// the one unit/integration tests run on.
#pragma once

#include <memory>
#include <vector>

#include "net/endpoint.h"

namespace dse::net {

class InProcFabric {
 public:
  explicit InProcFabric(int num_nodes);
  ~InProcFabric();

  InProcFabric(const InProcFabric&) = delete;
  InProcFabric& operator=(const InProcFabric&) = delete;

  int size() const { return static_cast<int>(endpoints_.size()); }

  // Endpoint for node `id`; owned by the fabric.
  Endpoint& endpoint(NodeId id);

  // Closes every node's inbound queue.
  void ShutdownAll();

 private:
  class NodeEndpoint;
  std::vector<std::unique_ptr<NodeEndpoint>> endpoints_;
};

}  // namespace dse::net
