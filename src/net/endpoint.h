// Message-exchange abstraction for the real (non-simulated) runtime.
//
// A fabric connects N numbered nodes; each node holds an Endpoint. The DSE
// kernel is written against this interface only — swapping in-process queues
// for TCP (or any future interconnect) never touches kernel code. This is
// the "eliminates dependency on a specific communication protocol" property
// the paper's reorganization targets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dse::net {

using NodeId = int;

// One delivered message.
struct Delivery {
  NodeId src = -1;
  std::vector<std::uint8_t> payload;
};

// Point-in-time transport-level traffic counts for one endpoint. These are
// counted at the fabric boundary (serialized payload bytes), independent of
// the kernel's own per-message-type accounting — the two views cross-check
// each other in tests.
struct WireCounts {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
};

// Receive-side fast path: offered an arriving frame on the thread that
// received it; returns true when it consumed the frame, false to leave it to
// Recv(). See Endpoint::SetInlineSink.
using InlineSink = std::function<bool(const Delivery&)>;

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual NodeId self() const = 0;
  virtual int world_size() const = 0;

  // Enqueues `payload` for `dst`. Sending to self is allowed (loopback).
  virtual Status Send(NodeId dst, std::vector<std::uint8_t> payload) = 0;

  // Blocks for the next message; nullopt once the fabric is shut down and
  // the inbound queue is drained.
  virtual std::optional<Delivery> Recv() = 0;

  // Non-blocking variant.
  virtual std::optional<Delivery> TryRecv() = 0;

  // Unblocks all receivers on this endpoint permanently.
  virtual void Shutdown() = 0;

  // Installs a sink that may consume arriving frames on the receiving thread
  // (the sender's thread in-process, the peer's reader thread over TCP)
  // instead of queueing them for Recv(). A frame is offered only while no
  // earlier frame from its source is queued or still held by the Recv()
  // caller, which must be a single thread. nullptr removes the sink; once
  // that call returns the old sink is not running and never runs again.
  // Frames a sink consumes count in wire_counts() like received ones. The
  // default keeps every frame on the Recv() path.
  virtual void SetInlineSink(InlineSink sink) { (void)sink; }

  WireCounts wire_counts() const {
    WireCounts w;
    w.msgs_sent = msgs_sent_.load(std::memory_order_relaxed);
    w.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    w.msgs_recv = msgs_recv_.load(std::memory_order_relaxed);
    w.bytes_recv = bytes_recv_.load(std::memory_order_relaxed);
    return w;
  }

 protected:
  // Implementations call these on every successful Send/Recv.
  void NoteSend(std::uint64_t bytes) {
    msgs_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void NoteRecv(std::uint64_t bytes) {
    msgs_recv_.fetch_add(1, std::memory_order_relaxed);
    bytes_recv_.fetch_add(bytes, std::memory_order_relaxed);
  }
  // Wraps `sink` so the frames it consumes count as received here, for
  // implementations that pass a sink down to another layer.
  InlineSink CountingSink(InlineSink sink) {
    if (!sink) return nullptr;
    return [this, sink = std::move(sink)](const Delivery& d) {
      if (!sink(d)) return false;
      NoteRecv(d.payload.size());
      return true;
    };
  }

 private:
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> msgs_recv_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
};

}  // namespace dse::net
