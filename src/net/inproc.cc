#include "net/inproc.h"

#include "common/check.h"
#include "net/inbox.h"

namespace dse::net {

class InProcFabric::NodeEndpoint final : public Endpoint {
 public:
  NodeEndpoint(InProcFabric* fabric, NodeId id, int num_nodes)
      : fabric_(fabric), id_(id), inbox_(num_nodes) {}

  NodeId self() const override { return id_; }
  int world_size() const override { return fabric_->size(); }

  Status Send(NodeId dst, std::vector<std::uint8_t> payload) override {
    if (dst < 0 || dst >= fabric_->size()) {
      return InvalidArgument("send to unknown node " + std::to_string(dst));
    }
    const std::uint64_t bytes = payload.size();
    Delivery d;
    d.src = id_;
    d.payload = std::move(payload);
    // With a sink installed at `dst`, this thread may complete the frame
    // there and then (see Inbox).
    if (!fabric_->endpoints_[static_cast<size_t>(dst)]->inbox_.Deliver(
            std::move(d))) {
      return Unavailable("destination endpoint shut down");
    }
    NoteSend(bytes);
    return Status::Ok();
  }

  std::optional<Delivery> Recv() override {
    std::optional<Delivery> d = inbox_.Pop();
    if (d) NoteRecv(d->payload.size());
    return d;
  }
  std::optional<Delivery> TryRecv() override {
    std::optional<Delivery> d = inbox_.TryPop();
    if (d) NoteRecv(d->payload.size());
    return d;
  }
  void Shutdown() override { inbox_.Close(); }

  void SetInlineSink(InlineSink sink) override {
    inbox_.SetSink(CountingSink(std::move(sink)));
  }

 private:
  friend class InProcFabric;
  InProcFabric* fabric_;
  NodeId id_;
  Inbox inbox_;
};

InProcFabric::InProcFabric(int num_nodes) {
  DSE_CHECK(num_nodes > 0);
  endpoints_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    endpoints_.push_back(std::make_unique<NodeEndpoint>(this, i, num_nodes));
  }
}

InProcFabric::~InProcFabric() { ShutdownAll(); }

Endpoint& InProcFabric::endpoint(NodeId id) {
  DSE_CHECK(id >= 0 && id < size());
  return *endpoints_[static_cast<size_t>(id)];
}

void InProcFabric::ShutdownAll() {
  for (auto& ep : endpoints_) ep->Shutdown();
}

}  // namespace dse::net
