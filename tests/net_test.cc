// Framing, in-process fabric, TCP fabric.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"

#include "net/fault.h"
#include "net/framing.h"
#include "net/inproc.h"
#include "net/tcp_fabric.h"
#include "osal/socket.h"

namespace dse::net {
namespace {

std::vector<std::uint8_t> Payload(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> v;
  for (int b : bytes) v.push_back(static_cast<std::uint8_t>(b));
  return v;
}

TEST(Framing, EncodeDecodeSingleFrame) {
  const auto payload = Payload({1, 2, 3});
  const auto frame = EncodeFrame(5, payload);
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(frame.data(), frame.size()).ok());
  const auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 5);
  EXPECT_EQ(d->payload, payload);
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, EmptyPayloadFrame) {
  const auto frame = EncodeFrame(0, {});
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(frame.data(), frame.size()).ok());
  const auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->payload.empty());
}

TEST(Framing, ByteAtATimeFeed) {
  const auto payload = Payload({9, 8, 7, 6, 5});
  const auto frame = EncodeFrame(3, payload);
  FrameDecoder dec;
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(dec.Feed(&frame[i], 1).ok());
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(dec.Next().has_value()) << "frame completed early at " << i;
    }
  }
  const auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, payload);
}

TEST(Framing, MultipleFramesOneFeed) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 4; ++i) {
    const auto f = EncodeFrame(i, Payload({i, i, i}));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(stream.data(), stream.size()).ok());
  for (int i = 0; i < 4; ++i) {
    const auto d = dec.Next();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->src, i);
  }
  EXPECT_FALSE(dec.Next().has_value());
}

TEST(Framing, SplitAcrossFeeds) {
  const auto a = EncodeFrame(1, Payload({1, 1}));
  const auto b = EncodeFrame(2, Payload({2, 2, 2}));
  std::vector<std::uint8_t> stream(a);
  stream.insert(stream.end(), b.begin(), b.end());
  FrameDecoder dec;
  // Split in the middle of frame b's header.
  const size_t cut = a.size() + 3;
  ASSERT_TRUE(dec.Feed(stream.data(), cut).ok());
  EXPECT_TRUE(dec.Next().has_value());
  EXPECT_FALSE(dec.Next().has_value());
  ASSERT_TRUE(dec.Feed(stream.data() + cut, stream.size() - cut).ok());
  const auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 2);
}

TEST(Framing, OversizedFrameRejectedAndPoisons) {
  ByteWriter w;
  w.WriteU32(kMaxFramePayload + 1);
  w.WriteI32(0);
  FrameDecoder dec;
  EXPECT_EQ(dec.Feed(w.buffer().data(), w.buffer().size()).code(),
            ErrorCode::kProtocolError);
  // Subsequent feeds fail too.
  std::uint8_t byte = 0;
  EXPECT_FALSE(dec.Feed(&byte, 1).ok());
}

TEST(Framing, PendingBytesTracksPartialFrame) {
  const auto frame = EncodeFrame(4, Payload({1, 2, 3, 4, 5, 6, 7, 8}));
  FrameDecoder dec;
  // Header only: 8 pending bytes, no frame yet.
  ASSERT_TRUE(dec.Feed(frame.data(), 8).ok());
  EXPECT_EQ(dec.pending_bytes(), 8u);
  EXPECT_FALSE(dec.Next().has_value());
  // Half the payload.
  ASSERT_TRUE(dec.Feed(frame.data() + 8, 4).ok());
  EXPECT_EQ(dec.pending_bytes(), 12u);
  // Rest: the frame completes and pending drops to zero (the consumed
  // prefix must not be reported as pending even before compaction).
  ASSERT_TRUE(dec.Feed(frame.data() + 12, frame.size() - 12).ok());
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_TRUE(dec.Next().has_value());
}

TEST(Framing, HeaderSplitAcrossTwoFeeds) {
  const auto payload = Payload({11, 22, 33});
  const auto frame = EncodeFrame(6, payload);
  FrameDecoder dec;
  // First feed ends mid-header (4 of 8 header bytes).
  ASSERT_TRUE(dec.Feed(frame.data(), 4).ok());
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 4u);
  ASSERT_TRUE(dec.Feed(frame.data() + 4, frame.size() - 4).ok());
  const auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 6);
  EXPECT_EQ(d->payload, payload);
}

TEST(Framing, ZeroLengthPayloadBetweenFrames) {
  std::vector<std::uint8_t> stream;
  for (const auto& f : {EncodeFrame(1, Payload({1})), EncodeFrame(2, {}),
                        EncodeFrame(3, Payload({3, 3}))}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(stream.data(), stream.size()).ok());
  auto d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1);
  d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 2);
  EXPECT_TRUE(d->payload.empty());
  d = dec.Next();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, Payload({3, 3}));
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, BackToBackFramesAcrossChunkedFeeds) {
  // Many frames streamed in fixed-size chunks that never align with frame
  // boundaries; exercises the read-offset bookkeeping and lazy compaction.
  std::vector<std::uint8_t> stream;
  const int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> payload(static_cast<size_t>(i % 37),
                                      static_cast<std::uint8_t>(i));
    const auto f = EncodeFrame(i % 7, payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  int decoded = 0;
  const size_t kChunk = 13;
  for (size_t off = 0; off < stream.size(); off += kChunk) {
    const size_t n = std::min(kChunk, stream.size() - off);
    ASSERT_TRUE(dec.Feed(stream.data() + off, n).ok());
    while (auto d = dec.Next()) {
      EXPECT_EQ(d->src, decoded % 7);
      EXPECT_EQ(d->payload.size(), static_cast<size_t>(decoded % 37));
      for (std::uint8_t b : d->payload) {
        EXPECT_EQ(b, static_cast<std::uint8_t>(decoded));
      }
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, kFrames);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, OversizedLengthPoisonsMidStream) {
  // A good frame followed by a poisoned header: the good frame decodes, the
  // bad header fails Feed, and the decoder stays poisoned afterwards.
  const auto good = EncodeFrame(1, Payload({1, 2}));
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(good.data(), good.size()).ok());
  EXPECT_TRUE(dec.Next().has_value());
  ByteWriter w;
  w.WriteU32(kMaxFramePayload + 7);
  w.WriteI32(2);
  EXPECT_EQ(dec.Feed(w.buffer().data(), w.buffer().size()).code(),
            ErrorCode::kProtocolError);
  const auto more = EncodeFrame(3, Payload({3}));
  EXPECT_FALSE(dec.Feed(more.data(), more.size()).ok());
  EXPECT_FALSE(dec.Next().has_value());
}

TEST(Framing, EncodeFrameIntoReusesBuffer) {
  std::vector<std::uint8_t> scratch;
  EncodeFrameInto(9, Payload({1, 2, 3, 4}), &scratch);
  EXPECT_EQ(scratch, EncodeFrame(9, Payload({1, 2, 3, 4})));
  const std::uint8_t* data_before = scratch.data();
  const size_t cap_before = scratch.capacity();
  // A smaller frame must fit in the existing allocation.
  EncodeFrameInto(2, Payload({7}), &scratch);
  EXPECT_EQ(scratch, EncodeFrame(2, Payload({7})));
  EXPECT_EQ(scratch.data(), data_before);
  EXPECT_EQ(scratch.capacity(), cap_before);
}

TEST(InProc, RoundTrip) {
  InProcFabric fabric(3);
  ASSERT_TRUE(fabric.endpoint(0).Send(2, Payload({42})).ok());
  const auto d = fabric.endpoint(2).Recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 0);
  EXPECT_EQ(d->payload, Payload({42}));
}

TEST(InProc, SelfSend) {
  InProcFabric fabric(2);
  ASSERT_TRUE(fabric.endpoint(1).Send(1, Payload({7})).ok());
  const auto d = fabric.endpoint(1).TryRecv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1);
}

TEST(InProc, UnknownDestinationRejected) {
  InProcFabric fabric(2);
  EXPECT_FALSE(fabric.endpoint(0).Send(5, {}).ok());
  EXPECT_FALSE(fabric.endpoint(0).Send(-1, {}).ok());
}

TEST(InProc, FifoPerSender) {
  InProcFabric fabric(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fabric.endpoint(0).Send(1, Payload({i})).ok());
  }
  for (int i = 0; i < 50; ++i) {
    const auto d = fabric.endpoint(1).Recv();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->payload[0], i);
  }
}

TEST(InProc, ShutdownUnblocksReceiver) {
  InProcFabric fabric(2);
  std::thread receiver([&] {
    EXPECT_FALSE(fabric.endpoint(1).Recv().has_value());
  });
  fabric.ShutdownAll();
  receiver.join();
  EXPECT_FALSE(fabric.endpoint(0).Send(1, {}).ok());
}

TEST(InProc, WorldSizeAndSelf) {
  InProcFabric fabric(4);
  EXPECT_EQ(fabric.endpoint(2).self(), 2);
  EXPECT_EQ(fabric.endpoint(2).world_size(), 4);
}

// --- TCP fabric --------------------------------------------------------------

std::vector<TcpNodeAddr> ReservePorts(int n) {
  // Bind ephemeral listeners to discover free ports, then release them.
  std::vector<TcpNodeAddr> nodes;
  std::vector<osal::TcpListener> holders;
  for (int i = 0; i < n; ++i) {
    holders.push_back(osal::TcpListener::Listen(0).value());
    nodes.push_back(TcpNodeAddr{"127.0.0.1", holders.back().port()});
  }
  return nodes;
}

TEST(TcpFabric, TwoNodeMesh) {
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] {
    b = TcpFabricEndpoint::Create(1, nodes).value();
  });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();

  ASSERT_TRUE(a->Send(1, Payload({1, 2, 3})).ok());
  auto d = b->Recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 0);
  EXPECT_EQ(d->payload, Payload({1, 2, 3}));

  ASSERT_TRUE(b->Send(0, Payload({4})).ok());
  d = a->Recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1);
}

TEST(TcpFabric, FourNodeAllToAll) {
  const int n = 4;
  const auto nodes = ReservePorts(n);
  std::vector<std::unique_ptr<TcpFabricEndpoint>> eps(n);
  std::vector<std::thread> starters;
  for (int i = 0; i < n; ++i) {
    starters.emplace_back([&, i] {
      eps[static_cast<size_t>(i)] = TcpFabricEndpoint::Create(i, nodes).value();
    });
  }
  for (auto& t : starters) t.join();

  // Everyone sends to everyone (including self).
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      ASSERT_TRUE(
          eps[static_cast<size_t>(src)]->Send(dst, Payload({src, dst})).ok());
    }
  }
  for (int dst = 0; dst < n; ++dst) {
    std::set<int> senders;
    for (int k = 0; k < n; ++k) {
      const auto d = eps[static_cast<size_t>(dst)]->Recv();
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->payload[1], dst);
      EXPECT_EQ(d->payload[0], d->src);
      senders.insert(d->src);
    }
    EXPECT_EQ(senders.size(), static_cast<size_t>(n));
  }
}

TEST(TcpFabric, LargeMessage) {
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes).value(); });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();

  std::vector<std::uint8_t> big(3 * 1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(a->Send(1, big).ok());
  const auto d = b->Recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, big);
}

TEST(TcpFabric, SelfIdOutOfRangeRejected) {
  EXPECT_FALSE(TcpFabricEndpoint::Create(3, ReservePorts(2), 100).ok());
}

TEST(TcpFabric, ShutdownUnblocksReceiver) {
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes).value(); });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();
  std::thread receiver([&] { EXPECT_FALSE(a->Recv().has_value()); });
  a->Shutdown();
  receiver.join();
}

TEST(TcpFabric, SendToClosedPeerFailsUnavailable) {
  // A peer dying mid-stream must surface as kUnavailable on the send path —
  // never an abort (SIGPIPE) and never an indefinite block. The first few
  // sends may still land in the kernel's socket buffer; the survivor's
  // reader notices the close and latches the connection down.
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes).value(); });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();

  b->Shutdown();  // "crash": closes both directions of the socket

  Status last = Status::Ok();
  for (int i = 0; i < 500 && last.ok(); ++i) {
    last = a->Send(1, Payload({1, 2, 3}));
    if (last.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(last.ok()) << "sends to a dead peer kept succeeding";
  EXPECT_EQ(last.code(), ErrorCode::kUnavailable) << last.ToString();
  // And it stays failed — the latch does not reset.
  EXPECT_EQ(a->Send(1, Payload({4})).code(), ErrorCode::kUnavailable);
}

TEST(TcpFabric, ConnectorStartsBeforeListener) {
  // Node 1 dials node 0 before node 0 listens: its refused connects retry
  // with a short backoff until the listener comes up, within the timeout.
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes, 5000).value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  a = TcpFabricEndpoint::Create(0, nodes, 5000).value();
  tb.join();

  ASSERT_TRUE(b->Send(0, Payload({9})).ok());
  const auto d = a->Recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, 1);
  EXPECT_EQ(d->payload, Payload({9}));
}

// --- Inline sink and its per-source gate -------------------------------------

// Test frames are {kind, seq}: the sink takes kTake frames (the stand-ins
// for responses) and declines the rest, and logs every frame it is offered.
constexpr int kDecline = 0;
constexpr int kTake = 1;

class SinkLog {
 public:
  InlineSink Sink() {
    return [this](const Delivery& d) {
      std::lock_guard<std::mutex> lock(mu_);
      offered_.push_back(d.payload.at(1));
      const bool take = d.payload.at(0) == kTake;
      if (take) taken_.push_back(d.payload.at(1));
      cv_.notify_all();
      return take;
    };
  }
  std::vector<int> offered() {
    std::lock_guard<std::mutex> lock(mu_);
    return offered_;
  }
  std::vector<int> taken() {
    std::lock_guard<std::mutex> lock(mu_);
    return taken_;
  }
  // Waits up to 10 s until `n` frames have been offered.
  bool WaitOffered(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return offered_.size() >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> offered_;
  std::vector<int> taken_;
};

int SeqOf(const std::optional<Delivery>& d) {
  return d.has_value() ? d->payload.at(1) : -1;
}

TEST(InlineSink, InProcGateHoldsFramesBehindEarlierOnesFromTheirSource) {
  InProcFabric fabric(3);
  Endpoint& rx = fabric.endpoint(1);
  SinkLog log;
  rx.SetInlineSink(log.Sink());
  auto send = [&](NodeId from, int kind, int seq) {
    ASSERT_TRUE(fabric.endpoint(from).Send(1, Payload({kind, seq})).ok());
  };
  using Seqs = std::vector<int>;

  // Nothing earlier from node 0: frame 0 is offered; declined, it queues.
  send(0, kDecline, 0);
  EXPECT_EQ(log.offered(), Seqs({0}));
  // Frame 1 queues behind frame 0 without being offered, while node 2's
  // frame, with nothing of its own ahead, is taken inline.
  send(0, kTake, 1);
  send(2, kTake, 100);
  EXPECT_EQ(log.offered(), Seqs({0, 100}));

  // TryRecv() retires like Recv() and cannot hang this test if a frame
  // went inline by mistake.
  EXPECT_EQ(SeqOf(rx.TryRecv()), 0);  // frame 0 in dispatch, 1 queued
  send(0, kTake, 2);
  EXPECT_EQ(SeqOf(rx.TryRecv()), 1);  // frame 0 retired, 1 in dispatch
  send(0, kTake, 3);
  EXPECT_EQ(SeqOf(rx.TryRecv()), 2);
  EXPECT_EQ(SeqOf(rx.TryRecv()), 3);
  EXPECT_EQ(log.offered(), Seqs({0, 100}));

  // The Recv() caller came back with frame 3 done: node 0's next frame
  // goes inline.
  EXPECT_FALSE(rx.TryRecv().has_value());
  send(0, kTake, 4);
  EXPECT_EQ(log.taken(), Seqs({100, 4}));
  EXPECT_FALSE(rx.TryRecv().has_value());

  // Frames taken inline count as received, like the ones Recv() returned.
  EXPECT_EQ(rx.wire_counts().msgs_recv, 6u);
  EXPECT_EQ(rx.wire_counts().bytes_recv, 12u);

  // Without a sink every frame queues.
  rx.SetInlineSink(nullptr);
  send(0, kTake, 5);
  EXPECT_EQ(log.offered().size(), 3u);
  EXPECT_EQ(SeqOf(rx.TryRecv()), 5);
  EXPECT_EQ(rx.wire_counts().msgs_recv, 7u);
}

TEST(InlineSink, FaultyEndpointForwardsTheSinkToItsFabric) {
  InProcFabric fabric(2);
  FaultInjector injector(FaultPlan{});
  FaultyEndpoint rx(&fabric.endpoint(1), &injector);
  SinkLog log;
  rx.SetInlineSink(log.Sink());
  ASSERT_TRUE(fabric.endpoint(0).Send(1, Payload({kTake, 0})).ok());
  EXPECT_EQ(log.taken(), std::vector<int>({0}));
  EXPECT_EQ(rx.wire_counts().msgs_recv, 1u);
  EXPECT_EQ(fabric.endpoint(1).wire_counts().msgs_recv, 1u);

  rx.SetInlineSink(nullptr);
  ASSERT_TRUE(fabric.endpoint(0).Send(1, Payload({kTake, 1})).ok());
  EXPECT_EQ(SeqOf(rx.TryRecv()), 1);
  EXPECT_EQ(log.offered().size(), 1u);
}

// Blocks up to 10 s until `pred` holds.
template <typename Pred>
bool WaitUntil(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(InlineSink, TcpReaderTakesAFrameOnceEarlierOnesRetire) {
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes).value(); });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();
  SinkLog log;
  b->SetInlineSink(log.Sink());

  // A declined frame still reaches Recv().
  ASSERT_TRUE(a->Send(1, Payload({kDecline, 0})).ok());
  EXPECT_EQ(SeqOf(b->Recv()), 0);
  EXPECT_EQ(log.offered(), std::vector<int>({0}));
  // Coming back for more retires frame 0; the next frame goes inline on
  // the reader thread.
  EXPECT_FALSE(b->TryRecv().has_value());
  ASSERT_TRUE(a->Send(1, Payload({kTake, 1})).ok());
  ASSERT_TRUE(log.WaitOffered(2));
  EXPECT_EQ(log.taken(), std::vector<int>({1}));
  EXPECT_TRUE(WaitUntil([&] { return b->wire_counts().msgs_recv == 2; }));

  b->SetInlineSink(nullptr);
  ASSERT_TRUE(a->Send(1, Payload({kTake, 2})).ok());
  EXPECT_EQ(SeqOf(b->Recv()), 2);
  EXPECT_EQ(log.offered().size(), 2u);
  EXPECT_EQ(b->wire_counts().msgs_recv, 3u);
}

TEST(InlineSink, TcpNeverOffersAFrameBehindAnUnretiredOne) {
  // A burst of mixed frames against a consumer that drains at its own pace.
  // Whatever the timing, the sink may only be offered frame k once every
  // earlier frame was taken inline or returned by TryRecv() and then
  // retired by the next call; each frame arrives exactly once, in order.
  const auto nodes = ReservePorts(2);
  std::unique_ptr<TcpFabricEndpoint> a, b;
  std::thread tb([&] { b = TcpFabricEndpoint::Create(1, nodes).value(); });
  a = TcpFabricEndpoint::Create(0, nodes).value();
  tb.join();

  constexpr int kFrames = 300;
  std::mutex mu;
  std::vector<char> done(kFrames, 0);  // taken inline, or retired
  std::vector<int> taken;
  int violations = 0;
  auto seq_of = [](const Delivery& d) {
    return d.payload.at(1) | (d.payload.at(2) << 8);
  };
  b->SetInlineSink([&](const Delivery& d) {
    const int seq = seq_of(d);
    std::lock_guard<std::mutex> lock(mu);
    for (int j = 0; j < seq; ++j) {
      if (done[static_cast<size_t>(j)] == 0) {
        ++violations;
        break;
      }
    }
    if (d.payload.at(0) != kTake) return false;
    done[static_cast<size_t>(seq)] = 1;
    taken.push_back(seq);
    return true;
  });

  std::thread sender([&] {
    Rng rng(0x1A11E5u);
    for (int seq = 0; seq < kFrames; ++seq) {
      const int kind = rng.NextBool(0.5) ? kTake : kDecline;
      ASSERT_TRUE(
          a->Send(1, Payload({kind, seq & 0xFF, seq >> 8})).ok());
    }
  });
  std::vector<int> received;
  int last = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (last >= 0) done[static_cast<size_t>(last)] = 1;
      if (taken.size() + received.size() == kFrames) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "timed out with " << received.size()
                    << " frames received";
      break;
    }
    last = -1;
    if (auto d = b->TryRecv()) {
      last = seq_of(*d);
      received.push_back(last);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  sender.join();
  b->SetInlineSink(nullptr);

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(violations, 0);
  EXPECT_TRUE(std::is_sorted(taken.begin(), taken.end()));
  EXPECT_TRUE(std::is_sorted(received.begin(), received.end()));
  std::set<int> all(taken.begin(), taken.end());
  all.insert(received.begin(), received.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kFrames));
}

// --- FrameDecoder robustness -------------------------------------------------

TEST(FramingFuzz, RandomSplitPointsAlwaysDecode) {
  // A valid stream fed in randomly-sized chunks must decode every frame
  // regardless of where the cuts fall.
  Rng rng(0xF00DF00Du);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> stream;
    const int frames = 1 + static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < frames; ++i) {
      std::vector<std::uint8_t> payload(rng.NextBelow(300));
      for (auto& byte : payload) {
        byte = static_cast<std::uint8_t>(rng.NextU64());
      }
      const auto f =
          EncodeFrame(static_cast<NodeId>(rng.NextBelow(8)), payload);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    FrameDecoder dec;
    int decoded = 0;
    size_t off = 0;
    while (off < stream.size()) {
      const size_t n =
          std::min<size_t>(1 + rng.NextBelow(64), stream.size() - off);
      ASSERT_TRUE(dec.Feed(stream.data() + off, n).ok());
      off += n;
      while (dec.Next().has_value()) ++decoded;
    }
    ASSERT_EQ(decoded, frames) << "round " << round;
    ASSERT_EQ(dec.pending_bytes(), 0u);
  }
}

TEST(FramingFuzz, TruncatedStreamsNeverCrashOrLoop) {
  // Feeding any prefix of a valid stream must leave the decoder waiting
  // quietly (no crash, no spin, no phantom frames beyond the complete ones).
  Rng rng(0xBADC0FFEu);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::uint8_t> stream;
    int complete_before_cut = 0;
    const int frames = 1 + static_cast<int>(rng.NextBelow(6));
    std::vector<size_t> ends;
    for (int i = 0; i < frames; ++i) {
      std::vector<std::uint8_t> payload(rng.NextBelow(100));
      const auto f = EncodeFrame(1, payload);
      stream.insert(stream.end(), f.begin(), f.end());
      ends.push_back(stream.size());
    }
    const size_t cut = rng.NextBelow(stream.size() + 1);
    for (size_t end : ends) {
      if (end <= cut) ++complete_before_cut;
    }
    FrameDecoder dec;
    ASSERT_TRUE(dec.Feed(stream.data(), cut).ok());
    int decoded = 0;
    while (dec.Next().has_value()) ++decoded;
    EXPECT_EQ(decoded, complete_before_cut) << "round " << round;
  }
}

TEST(FramingFuzz, GarbageBytesNeverCrashOrLoop) {
  // Raw random bytes: every feed must either buffer quietly or poison the
  // decoder with kProtocolError; Next() must terminate. (An unlucky garbage
  // "header" can claim a huge-but-legal length — that just buffers.)
  Rng rng(0xDEADBEEFu);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    bool poisoned = false;
    for (int feed = 0; feed < 20 && !poisoned; ++feed) {
      std::vector<std::uint8_t> junk(1 + rng.NextBelow(200));
      for (auto& byte : junk) {
        byte = static_cast<std::uint8_t>(rng.NextU64());
      }
      const Status s = dec.Feed(junk.data(), junk.size());
      if (!s.ok()) {
        EXPECT_EQ(s.code(), ErrorCode::kProtocolError);
        poisoned = true;
      }
      // Drain whatever "frames" the garbage happened to form; must
      // terminate (each Next() pop consumes buffered bytes).
      while (dec.Next().has_value()) {
      }
    }
    if (poisoned) {
      // Poisoned decoders refuse everything from then on.
      std::uint8_t byte = 0;
      EXPECT_FALSE(dec.Feed(&byte, 1).ok());
      EXPECT_FALSE(dec.Next().has_value());
    }
  }
}

TEST(FramingFuzz, TruncatedFramesWithGarbageTails) {
  // A truncated frame followed by garbage — the shape a lossy wire actually
  // produces. The decoder may misparse (framing has no checksum) but must
  // never crash, loop, or accept an oversized length.
  Rng rng(0x5EEDED5Eu);
  for (int round = 0; round < 100; ++round) {
    const auto good = EncodeFrame(2, std::vector<std::uint8_t>(
                                         40, static_cast<std::uint8_t>(round)));
    const size_t keep = rng.NextBelow(good.size());
    std::vector<std::uint8_t> stream(good.begin(),
                                     good.begin() + static_cast<long>(keep));
    for (int i = 0; i < 32; ++i) {
      stream.push_back(static_cast<std::uint8_t>(rng.NextU64()));
    }
    FrameDecoder dec;
    const Status s = dec.Feed(stream.data(), stream.size());
    if (!s.ok()) {
      EXPECT_EQ(s.code(), ErrorCode::kProtocolError);
    }
    while (dec.Next().has_value()) {
    }
  }
}

}  // namespace
}  // namespace dse::net
