// The receive queue of one endpoint, with the ordering gate for direct
// completion (Endpoint::SetInlineSink).
//
// Every frame that arrives at the endpoint goes through Deliver(). When a
// sink is installed and nothing earlier from the frame's source is queued
// here or still being handled by the Recv() caller, the sink is offered the
// frame on the arriving thread. A frame the sink takes never enters the
// queue; any other frame queues in arrival order, exactly as without a sink.
//
// The gate keeps, per source, the number of frames queued or in dispatch. A
// frame is counted when it is queued and uncounted when the Recv() caller
// asks for the next frame: the single-threaded service loop is done with a
// frame once it comes back for another. So a response is completed inline
// only when the service loop has already handled every frame its sender sent
// before it, which keeps a read-cache fill ordered with the invalidations
// the same home sent around it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "net/endpoint.h"

namespace dse::net {

class Inbox {
 public:
  explicit Inbox(int num_sources);

  // Installs `sink` (nullptr removes it). Blocks until no sink call is
  // running, so once it returns the previous sink is never called again.
  void SetSink(InlineSink sink);

  // Hands an arriving frame to the sink or queues it. Returns false once the
  // inbox is closed: the frame is dropped and the sink is not offered it.
  bool Deliver(Delivery d);

  // Retires the frame the previous call handed out, then blocks for the next
  // one; nullopt once closed and drained. One consumer thread only.
  std::optional<Delivery> Pop();
  // Non-blocking variant of Pop().
  std::optional<Delivery> TryPop();

  // Marks the inbox closed: Deliver fails, Pop drains then returns nullopt.
  void Close();

 private:
  bool Counted(NodeId src) const {
    return src >= 0 && static_cast<size_t>(src) < in_queue_.size();
  }
  // Callers hold mu_.
  void Enqueue(Delivery d);
  void RetireDispatched();
  std::optional<Delivery> TakeFront();

  std::mutex mu_;
  std::condition_variable items_cv_;
  std::condition_variable idle_cv_;  // sink_calls_ reached 0
  std::deque<Delivery> items_;
  bool closed_ = false;
  InlineSink sink_;
  int sink_calls_ = 0;
  // Per source: frames queued or in dispatch.
  std::vector<int> in_queue_;
  // Source of the frame the consumer holds; -1 for none.
  NodeId dispatched_ = -1;
};

}  // namespace dse::net
