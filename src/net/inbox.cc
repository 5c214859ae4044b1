#include "net/inbox.h"

#include <utility>

namespace dse::net {

Inbox::Inbox(int num_sources)
    : in_queue_(static_cast<size_t>(num_sources > 0 ? num_sources : 0), 0) {}

void Inbox::SetSink(InlineSink sink) {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return sink_calls_ == 0; });
  sink_ = std::move(sink);
}

bool Inbox::Deliver(Delivery d) {
  bool offer = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    offer = sink_ && Counted(d.src) &&
            in_queue_[static_cast<size_t>(d.src)] == 0;
    if (offer) {
      ++sink_calls_;
    } else {
      Enqueue(std::move(d));
    }
  }
  if (!offer) {
    items_cv_.notify_one();
    return true;
  }
  // sink_ cannot change while sink_calls_ > 0 (SetSink waits for 0).
  const bool taken = sink_(d);
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!taken && !closed_) {
      Enqueue(std::move(d));
      queued = true;
    }
    if (--sink_calls_ == 0) idle_cv_.notify_all();
  }
  if (queued) items_cv_.notify_one();
  return taken || queued;
}

std::optional<Delivery> Inbox::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  RetireDispatched();
  items_cv_.wait(lock, [&] { return !items_.empty() || closed_; });
  return TakeFront();
}

std::optional<Delivery> Inbox::TryPop() {
  std::lock_guard<std::mutex> lock(mu_);
  RetireDispatched();
  return TakeFront();
}

void Inbox::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  items_cv_.notify_all();
}

void Inbox::Enqueue(Delivery d) {
  if (Counted(d.src)) ++in_queue_[static_cast<size_t>(d.src)];
  items_.push_back(std::move(d));
}

void Inbox::RetireDispatched() {
  if (dispatched_ >= 0) --in_queue_[static_cast<size_t>(dispatched_)];
  dispatched_ = -1;
}

std::optional<Delivery> Inbox::TakeFront() {
  if (items_.empty()) return std::nullopt;
  Delivery d = std::move(items_.front());
  items_.pop_front();
  if (Counted(d.src)) dispatched_ = d.src;
  return d;
}

}  // namespace dse::net
