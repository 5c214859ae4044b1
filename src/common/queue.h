// A thread-safe blocking queue. (The fabrics' receive queues are
// net::Inbox, which adds the per-source gate for inline completion.)
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace dse {

// Unbounded MPMC blocking queue. Close() wakes all waiters; Pop() returns
// nullopt once the queue is closed and drained.
template <typename T>
class BlockingQueue {
 public:
  // Pushes an item. Returns false if the queue is closed (item dropped).
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks for the next item; nullopt when closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Marks the queue closed; producers fail, consumers drain then get nullopt.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace dse
