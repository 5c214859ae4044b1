// GMM data-plane fast path: per-home batching, adaptive read-ahead and
// write-combining. Covers the BatchReq/BatchResp codec, the home-side batch
// state machine (including deferred invalidation interleavings), end-to-end
// equivalence against the serial path on the threaded runtime, envelope
// reduction, prefetch-vs-invalidation correctness, flush-on-sync ordering,
// and simulator determinism with every knob on.
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/gmm/home.h"
#include "dse/proto/messages.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

using gmm::GlobalAddr;

std::vector<std::uint8_t> Bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

std::uint64_t SumStat(const std::vector<MetricsSnapshot>& per_node,
                      const std::string& name) {
  std::uint64_t total = 0;
  for (const MetricsSnapshot& node : per_node) {
    const auto it = node.find(name);
    if (it != node.end()) total += it->second;
  }
  return total;
}

// Request envelopes the data plane puts on the fabric.
std::uint64_t DataPlaneEnvelopes(const std::vector<MetricsSnapshot>& stats) {
  return SumStat(stats, "msg.sent.ReadReq") +
         SumStat(stats, "msg.sent.WriteReq") +
         SumStat(stats, "msg.sent.BatchReq");
}

// --- Codec -------------------------------------------------------------------

TEST(BatchProto, RequestRoundTrip) {
  proto::Envelope env;
  env.req_id = 42;
  env.src_node = 3;
  proto::BatchReq req;
  proto::BatchItem rd;
  rd.op = proto::BatchOp::kRead;
  rd.addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 1, 64);
  rd.len = 16;
  rd.block_fetch = true;
  proto::BatchItem wr;
  wr.op = proto::BatchOp::kWrite;
  wr.addr = gmm::MakeAddr(gmm::AddrKind::kStriped, 10, 2048);
  wr.data = Bytes({1, 2, 3});
  req.items = {rd, wr};
  env.body = req;

  auto decoded = proto::Decode(proto::Encode(env));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->req_id, 42u);
  EXPECT_EQ(decoded->src_node, 3);
  const auto& got = std::get<proto::BatchReq>(decoded->body);
  ASSERT_EQ(got.items.size(), 2u);
  EXPECT_EQ(got.items[0].op, proto::BatchOp::kRead);
  EXPECT_EQ(got.items[0].addr, rd.addr);
  EXPECT_EQ(got.items[0].len, 16u);
  EXPECT_TRUE(got.items[0].block_fetch);
  EXPECT_EQ(got.items[1].op, proto::BatchOp::kWrite);
  EXPECT_EQ(got.items[1].data, wr.data);
}

TEST(BatchProto, ResponseRoundTripAndRouting) {
  proto::Envelope env;
  env.req_id = 7;
  env.src_node = 1;
  proto::BatchResp resp;
  proto::BatchItemResp a;
  a.addr = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 2, 0);
  a.block_fetch = true;
  a.data = Bytes({9, 9});
  proto::BatchItemResp b;  // write ack: empty data
  resp.items = {a, b};
  env.body = resp;

  auto decoded = proto::Decode(proto::Encode(env));
  ASSERT_TRUE(decoded.ok());
  const auto& got = std::get<proto::BatchResp>(decoded->body);
  ASSERT_EQ(got.items.size(), 2u);
  EXPECT_TRUE(got.items[0].block_fetch);
  EXPECT_EQ(got.items[0].data, a.data);
  EXPECT_TRUE(got.items[1].data.empty());

  // Responses route to blocked tasks; requests go to the kernel.
  EXPECT_TRUE(proto::IsClientResponse(proto::MsgType::kBatchResp));
  EXPECT_FALSE(proto::IsClientResponse(proto::MsgType::kBatchReq));
  EXPECT_EQ(proto::MsgTypeName(proto::MsgType::kBatchReq), "BatchReq");
}

// --- Home state machine ------------------------------------------------------

TEST(GmmHomeBatch, ReadsShareOneReply) {
  gmm::GmmHome home(0, 4, /*coherence=*/false);
  const GlobalAddr a = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 0);
  home.store().Write(a, "abcdef", 6);

  proto::BatchReq req;
  proto::BatchItem i0;
  i0.op = proto::BatchOp::kRead;
  i0.addr = a;
  i0.len = 3;
  proto::BatchItem i1;
  i1.op = proto::BatchOp::kRead;
  i1.addr = a + 3;
  i1.len = 3;
  req.items = {i0, i1};

  const auto replies = home.HandleBatch(2, 9, std::move(req));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].dst, 2);
  EXPECT_EQ(replies[0].env.req_id, 9u);
  const auto& resp = std::get<proto::BatchResp>(replies[0].env.body);
  ASSERT_EQ(resp.items.size(), 2u);
  EXPECT_EQ(resp.items[0].data, Bytes({'a', 'b', 'c'}));
  EXPECT_EQ(resp.items[1].data, Bytes({'d', 'e', 'f'}));
  EXPECT_EQ(home.stats().batches, 1u);
  EXPECT_EQ(home.stats().batch_items, 2u);
}

TEST(GmmHomeBatch, ItemsApplyInOrder) {
  // A later read observes an earlier write of the same batch; a later write
  // overwrites an earlier one — items apply atomically-per-node, in order.
  gmm::GmmHome home(0, 4, false);
  const GlobalAddr a = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 128);

  proto::BatchReq req;
  proto::BatchItem w1;
  w1.op = proto::BatchOp::kWrite;
  w1.addr = a;
  w1.data = Bytes({1});
  proto::BatchItem w2;
  w2.op = proto::BatchOp::kWrite;
  w2.addr = a;
  w2.data = Bytes({2});
  proto::BatchItem rd;
  rd.op = proto::BatchOp::kRead;
  rd.addr = a;
  rd.len = 1;
  req.items = {w1, w2, rd};

  const auto replies = home.HandleBatch(1, 5, std::move(req));
  ASSERT_EQ(replies.size(), 1u);
  const auto& resp = std::get<proto::BatchResp>(replies[0].env.body);
  ASSERT_EQ(resp.items.size(), 3u);
  EXPECT_TRUE(resp.items[0].data.empty());  // write acks carry no data
  EXPECT_EQ(resp.items[2].data, Bytes({2}));
}

TEST(GmmHomeBatch, CoherentWriteDefersWholeBatch) {
  gmm::GmmHome home(0, 4, /*coherence=*/true);
  const GlobalAddr cached = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 0);
  const GlobalAddr other =
      gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 4 * gmm::kHomedBlockBytes);

  // Node 2 holds a copy of the first block.
  proto::ReadReq prime;
  prime.addr = cached;
  prime.len = 1;
  prime.block_fetch = true;
  (void)home.HandleRead(2, 1, prime);

  proto::BatchReq req;
  proto::BatchItem rd;
  rd.op = proto::BatchOp::kRead;
  rd.addr = other;
  rd.len = 4;
  proto::BatchItem wr;
  wr.op = proto::BatchOp::kWrite;
  wr.addr = cached;
  wr.data = Bytes({7});
  req.items = {rd, wr};

  // The read item completes inline but the write starts an invalidation
  // round, so the only outbound message is the InvalidateReq — the batch
  // reply is withheld.
  auto replies = home.HandleBatch(1, 40, std::move(req));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].dst, 2);
  (void)std::get<proto::InvalidateReq>(replies[0].env.body);
  EXPECT_EQ(home.pending_block_count(), 1u);

  // The ack releases the whole batch at once.
  replies = home.HandleInvalidateAck(
      2, proto::InvalidateAck{gmm::BlockBaseOf(cached)});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].dst, 1);
  EXPECT_EQ(replies[0].env.req_id, 40u);
  const auto& resp = std::get<proto::BatchResp>(replies[0].env.body);
  ASSERT_EQ(resp.items.size(), 2u);
  EXPECT_EQ(resp.items[0].data.size(), 4u);
  EXPECT_EQ(home.pending_block_count(), 0u);
  std::uint8_t out = 0;
  home.store().Read(cached, &out, 1);
  EXPECT_EQ(out, 7);
}

TEST(GmmHomeBatch, BatchQueuesBehindPlainWriteRound) {
  gmm::GmmHome home(0, 4, true);
  const GlobalAddr a = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 0);
  proto::ReadReq prime;
  prime.addr = a;
  prime.len = 1;
  prime.block_fetch = true;
  (void)home.HandleRead(3, 1, prime);

  // Plain write from node 1 starts a round against node 3.
  proto::WriteReq w;
  w.addr = a;
  w.data = Bytes({1});
  auto replies = home.HandleWrite(1, 10, std::move(w));
  ASSERT_EQ(replies.size(), 1u);
  (void)std::get<proto::InvalidateReq>(replies[0].env.body);

  // A batched write to the same block queues behind it silently.
  proto::BatchReq req;
  proto::BatchItem bw;
  bw.op = proto::BatchOp::kWrite;
  bw.addr = a;
  bw.data = Bytes({2});
  req.items = {bw};
  EXPECT_TRUE(home.HandleBatch(2, 20, std::move(req)).empty());
  EXPECT_EQ(home.stats().deferred_mutations, 1u);

  // One ack completes the plain write AND the (immediately appliable)
  // batched one: a WriteAck for node 1, a BatchResp for node 2.
  replies = home.HandleInvalidateAck(3,
                                     proto::InvalidateAck{gmm::BlockBaseOf(a)});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].dst, 1);
  (void)std::get<proto::WriteAck>(replies[0].env.body);
  EXPECT_EQ(replies[1].dst, 2);
  EXPECT_EQ(replies[1].env.req_id, 20u);
  (void)std::get<proto::BatchResp>(replies[1].env.body);
  std::uint8_t out = 0;
  home.store().Read(a, &out, 1);
  EXPECT_EQ(out, 2);  // serialized after the plain write
}

TEST(GmmHomeBatch, BatchedBlockFetchEntersCopyset) {
  gmm::GmmHome home(0, 4, true);
  const GlobalAddr a = gmm::MakeAddr(gmm::AddrKind::kNodeHomed, 0, 0);

  proto::BatchReq req;
  proto::BatchItem rd;
  rd.op = proto::BatchOp::kRead;
  rd.addr = a;
  rd.len = 1;
  rd.block_fetch = true;
  req.items = {rd};
  (void)home.HandleBatch(2, 1, std::move(req));

  // A later write must invalidate node 2's batched-in copy.
  proto::WriteReq w;
  w.addr = a;
  w.data = Bytes({5});
  const auto replies = home.HandleWrite(1, 2, std::move(w));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].dst, 2);
  (void)std::get<proto::InvalidateReq>(replies[0].env.body);
}

// --- Threaded runtime: equivalence and semantics -----------------------------

// Scatter/gather workload: uneven small writes over a finely striped region,
// one wide read back, then a strided re-read. Returns the wide read-back so
// runs under different knob settings can be compared bit-for-bit.
void RegisterScatter(TaskRegistry& registry) {
  registry.Register("fp.scatter", [](Task& t) {
    constexpr std::uint64_t kBytes = 4096;
    auto region = t.AllocStriped(kBytes, 6);  // 64-byte stripes
    DSE_CHECK_OK(region.status());
    std::vector<std::uint8_t> img(kBytes);
    for (std::uint64_t i = 0; i < kBytes; ++i) {
      img[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    // Uneven strides so writes straddle stripe (and coherence-block)
    // boundaries.
    for (std::uint64_t off = 0; off < kBytes; off += 24) {
      const std::uint64_t n = std::min<std::uint64_t>(24, kBytes - off);
      DSE_CHECK_OK(t.Write(*region + off, img.data() + off, n));
    }
    std::vector<std::uint8_t> wide(kBytes);
    DSE_CHECK_OK(t.Read(*region, wide.data(), kBytes));  // flushes combining
    std::vector<std::uint8_t> strided(kBytes);
    for (std::uint64_t off = 0; off < kBytes; off += 64) {
      DSE_CHECK_OK(t.Read(*region + off, strided.data() + off, 64));
    }
    DSE_CHECK_MSG(strided == wide, "strided re-read diverged");
    t.SetResult(std::move(wide));
  });
}

std::vector<std::uint8_t> RunScatter(const ThreadedOptions& opts) {
  ThreadedRuntime rt(opts);
  RegisterScatter(rt.registry());
  return rt.RunMain("fp.scatter");
}

TEST(FastPathThreaded, KnobCombinationsMatchSerial) {
  std::vector<std::uint8_t> expected(4096);
  for (std::uint64_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto baseline = RunScatter(ThreadedNodes(4));
  EXPECT_EQ(baseline, expected);

  // Every combination batches; the other fast-path knobs vary.
  struct Knobs {
    bool cache;
    bool pipelined;
    int prefetch;
    bool combine;
  };
  const Knobs combos[] = {{false, false, 0, false},
                          {true, false, 0, false},
                          {true, false, 4, false},
                          {false, false, 0, true},
                          {true, true, 4, true}};
  for (const Knobs& k : combos) {
    ThreadedOptions opts = ThreadedNodes(4);
    opts.batching = true;
    opts.read_cache = k.cache;
    opts.pipelined_transfers = k.pipelined;
    opts.prefetch_depth = k.prefetch;
    opts.write_combine = k.combine;
    EXPECT_EQ(RunScatter(opts), baseline)
        << "batch=" << opts.batching << " cache=" << opts.read_cache
        << " pf=" << opts.prefetch_depth << " wc=" << opts.write_combine;
  }
}

TEST(FastPathThreaded, BatchingHalvesDataPlaneEnvelopes) {
  auto run = [](bool batch) {
    ThreadedOptions opts = ThreadedNodes(4);
    opts.batching = batch;
    ThreadedRuntime rt(opts);
    rt.registry().Register("fp.wide", [](Task& t) {
      constexpr std::uint64_t kBytes = 4096;  // 64 chunks across 4 homes
      auto region = t.AllocStriped(kBytes, 6);
      DSE_CHECK_OK(region.status());
      std::vector<std::uint8_t> buf(kBytes, 0x42);
      DSE_CHECK_OK(t.Write(*region, buf.data(), kBytes));
      for (int pass = 0; pass < 4; ++pass) {
        DSE_CHECK_OK(t.Read(*region, buf.data(), kBytes));
      }
    });
    rt.RunMain("fp.wide");
    return DataPlaneEnvelopes(rt.ClusterStats());
  };
  const std::uint64_t serial = run(false);
  const std::uint64_t batched = run(true);
  // Acceptance: at least 2x fewer request envelopes (actual ratio here is
  // ~16x: 64 chunk messages collapse to one batch per home).
  EXPECT_GE(serial, 2 * batched) << "serial=" << serial
                                 << " batched=" << batched;
}

TEST(FastPathThreaded, PrefetchedBlocksHonorInvalidation) {
  ThreadedOptions opts = ThreadedNodes(4);
  opts.read_cache = true;
  opts.batching = true;
  opts.prefetch_depth = 4;
  ThreadedRuntime rt(opts);
  rt.registry().Register("fp.rewriter", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    GlobalAddr region = 0;
    std::uint64_t bytes = 0;
    DSE_CHECK_OK(r.ReadU64(&region));
    DSE_CHECK_OK(r.ReadU64(&bytes));
    std::vector<std::uint8_t> img(bytes);
    for (std::uint64_t i = 0; i < bytes; ++i) {
      img[i] = static_cast<std::uint8_t>(0xB0 + i);
    }
    DSE_CHECK_OK(t.Write(region, img.data(), bytes));
  });
  rt.registry().Register("fp.stream", [](Task& t) {
    constexpr std::uint64_t kBlocks = 8;
    constexpr std::uint64_t kBytes = kBlocks * gmm::kHomedBlockBytes;
    auto region = t.AllocOnNode(kBytes, 1);
    DSE_CHECK_OK(region.status());
    std::vector<std::uint8_t> a(kBytes, 0xA5);
    DSE_CHECK_OK(t.Write(*region, a.data(), kBytes));

    // Sequential stream: primes the cache and triggers the read-ahead.
    std::vector<std::uint8_t> got(kBytes);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      DSE_CHECK_OK(t.Read(*region + b * gmm::kHomedBlockBytes,
                          got.data() + b * gmm::kHomedBlockBytes,
                          gmm::kHomedBlockBytes));
    }
    DSE_CHECK_MSG(got == a, "first stream read wrong");

    // A remote writer rewrites everything; its invalidations must evict our
    // cached AND prefetched copies.
    ByteWriter w;
    w.WriteU64(*region);
    w.WriteU64(kBytes);
    auto gpid = t.Spawn("fp.rewriter", w.TakeBuffer(), 2);
    DSE_CHECK_OK(gpid.status());
    DSE_CHECK_OK(t.Join(*gpid).status());

    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      DSE_CHECK_OK(t.Read(*region + b * gmm::kHomedBlockBytes,
                          got.data() + b * gmm::kHomedBlockBytes,
                          gmm::kHomedBlockBytes));
    }
    t.SetResult(std::move(got));
  });
  const auto result = rt.RunMain("fp.stream");
  ASSERT_EQ(result.size(), 8u * gmm::kHomedBlockBytes);
  for (std::uint64_t i = 0; i < result.size(); ++i) {
    ASSERT_EQ(result[i], static_cast<std::uint8_t>(0xB0 + i)) << "at " << i;
  }
  // The stream actually exercised the read-ahead.
  EXPECT_GT(SumStat(rt.ClusterStats(), "gmm.prefetch.issued"), 0u);
}

TEST(FastPathThreaded, WriteCombineFlushesAtBarrier) {
  ThreadedOptions opts = ThreadedNodes(4);
  opts.batching = true;
  opts.write_combine = true;
  ThreadedRuntime rt(opts);
  rt.registry().Register("fp.burst", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    GlobalAddr region = 0;
    DSE_CHECK_OK(r.ReadU64(&region));
    std::uint8_t v[8];
    for (int i = 0; i < 32; ++i) {
      std::memset(v, i + 1, sizeof(v));
      DSE_CHECK_OK(t.Write(region + static_cast<std::uint64_t>(i) * 8, v, 8));
    }
    // Entering the barrier is a release: the burst must be home-visible
    // before the other party is let through.
    DSE_CHECK_OK(t.Barrier(9, 2));
  });
  rt.registry().Register("fp.main", [](Task& t) {
    auto region = t.AllocOnNode(256, 1);
    DSE_CHECK_OK(region.status());
    ByteWriter w;
    w.WriteU64(*region);
    auto gpid = t.Spawn("fp.burst", w.TakeBuffer(), 2);
    DSE_CHECK_OK(gpid.status());
    DSE_CHECK_OK(t.Barrier(9, 2));
    std::vector<std::uint8_t> got(256);
    DSE_CHECK_OK(t.Read(*region, got.data(), 256));
    DSE_CHECK_OK(t.Join(*gpid).status());
    t.SetResult(std::move(got));
  });
  const auto result = rt.RunMain("fp.main");
  ASSERT_EQ(result.size(), 256u);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 8; ++j) {
      ASSERT_EQ(result[static_cast<size_t>(i * 8 + j)], i + 1)
          << "span " << i;
    }
  }
  const auto stats = rt.ClusterStats();
  EXPECT_GT(SumStat(stats, "gmm.wc.writes_buffered"), 0u);
  EXPECT_GT(SumStat(stats, "gmm.wc.flushes"), 0u);
  EXPECT_GT(SumStat(stats, "gmm.wc.merges"), 0u);
}

TEST(FastPathThreaded, WriteCombineReadsYourWrites) {
  ThreadedOptions opts = ThreadedNodes(2);
  opts.write_combine = true;
  ThreadedRuntime rt(opts);
  rt.registry().Register("fp.ryw", [](Task& t) {
    auto region = t.AllocOnNode(64, 1);
    DSE_CHECK_OK(region.status());
    const std::uint8_t v[4] = {1, 2, 3, 4};
    DSE_CHECK_OK(t.Write(*region + 8, v, 4));
    // The read overlaps the buffered span: it must flush and observe it.
    std::uint8_t got[4] = {};
    DSE_CHECK_OK(t.Read(*region + 8, got, 4));
    DSE_CHECK_MSG(std::memcmp(got, v, 4) == 0, "stale read of buffered write");
    t.SetResult({got[0], got[1], got[2], got[3]});
  });
  EXPECT_EQ(rt.RunMain("fp.ryw"), Bytes({1, 2, 3, 4}));
}

// --- Simulator: determinism and cost-model payoff ----------------------------

// Small striped sweep (wide reads + small-write bursts + barriers), the same
// shape as bench_ablation_batching.
void RegisterSweep(TaskRegistry& registry) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 3;
  constexpr std::uint64_t kBlock = 1024;
  constexpr std::uint64_t kSlabBytes = 8 * kBlock;

  registry.Register("sweep.worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::int32_t widx = 0;
    GlobalAddr in = 0;
    GlobalAddr out = 0;
    DSE_CHECK_OK(r.ReadI32(&widx));
    DSE_CHECK_OK(r.ReadU64(&in));
    DSE_CHECK_OK(r.ReadU64(&out));
    std::vector<std::uint8_t> buf(8 * kBlock);  // 2 stripes per home per read
    std::uint8_t v[8] = {};
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t slab =
          (static_cast<std::uint64_t>(widx) * kRounds +
           static_cast<std::uint64_t>(round)) *
          kSlabBytes;
      for (std::uint64_t off = 0; off < kSlabBytes; off += buf.size()) {
        DSE_CHECK_OK(t.Read(in + slab + off, buf.data(), buf.size()));
      }
      t.Compute(500);
      for (int wr = 0; wr < 16; ++wr) {
        v[0] = static_cast<std::uint8_t>(wr);
        DSE_CHECK_OK(t.Write(out + static_cast<std::uint64_t>(widx) * kBlock +
                                 static_cast<std::uint64_t>(wr) * 8,
                             v, 8));
      }
      DSE_CHECK_OK(t.Barrier(100 + static_cast<std::uint64_t>(round),
                             kWorkers));
    }
  });

  registry.Register("sweep.main", [](Task& t) {
    auto in = t.AllocStriped(
        static_cast<std::uint64_t>(kWorkers) * kRounds * kSlabBytes, 10);
    DSE_CHECK_OK(in.status());
    auto out =
        t.AllocStriped(static_cast<std::uint64_t>(kWorkers) * kBlock, 10);
    DSE_CHECK_OK(out.status());
    std::vector<Gpid> gpids;
    for (int i = 0; i < kWorkers; ++i) {
      ByteWriter w;
      w.WriteI32(i);
      w.WriteU64(*in);
      w.WriteU64(*out);
      auto gpid = t.Spawn("sweep.worker", w.TakeBuffer(), i % t.num_nodes());
      DSE_CHECK_OK(gpid.status());
      gpids.push_back(*gpid);
    }
    for (Gpid g : gpids) DSE_CHECK_OK(t.Join(g).status());
  });
}

SimReport RunSweepSim(bool batch, int prefetch, bool wc) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.read_cache = prefetch > 0;
  opts.batching = batch;
  opts.prefetch_depth = prefetch;
  opts.write_combine = wc;
  SimRuntime rt(opts);
  RegisterSweep(rt.registry());
  return rt.Run("sweep.main");
}

TEST(FastPathSim, FastPathDeterministicRunToRun) {
  const SimReport a = RunSweepSim(true, 4, true);
  const SimReport b = RunSweepSim(true, 4, true);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_frames, b.wire_frames);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.node_stats, b.node_stats);
}

TEST(FastPathSim, FastPathBeatsSerialOnSharedBus) {
  const SimReport serial = RunSweepSim(false, 0, false);
  const SimReport fast = RunSweepSim(true, 4, true);
  EXPECT_LT(fast.virtual_seconds, serial.virtual_seconds);
  const std::uint64_t env_serial = DataPlaneEnvelopes(serial.node_stats);
  const std::uint64_t env_fast = DataPlaneEnvelopes(fast.node_stats);
  EXPECT_GE(env_serial, 2 * env_fast)
      << "serial=" << env_serial << " fast=" << env_fast;
  // The new counters surface through the SSI stats protocol.
  EXPECT_GT(SumStat(fast.node_stats, "gmm.batch.sent"), 0u);
  EXPECT_GT(SumStat(fast.node_stats, "gmm.batch.served"), 0u);
  EXPECT_GT(SumStat(fast.node_stats, "gmm.prefetch.issued"), 0u);
  EXPECT_GT(SumStat(fast.node_stats, "gmm.wc.flushes"), 0u);
}

}  // namespace
}  // namespace dse
