// GlobalVector / GlobalCounter / GlobalWorkQueue over the threaded runtime.
#include <atomic>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "dse/collections.h"
#include "dse/threaded_runtime.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

void RunMain(int nodes, std::function<void(Task&)> fn) {
  ThreadedRuntime rt(ThreadedNodes(nodes));
  rt.registry().Register("coll.main", std::move(fn));
  rt.RunMain("coll.main");
}

TEST(GlobalVectorT, SetGetRoundTrip) {
  RunMain(3, [](Task& t) {
    auto vec = GlobalVector<double>::CreateStriped(t, 100).value();
    EXPECT_EQ(vec.size(), 100u);
    vec.Set(t, 0, 1.25);
    vec.Set(t, 99, -7.5);
    EXPECT_EQ(vec.Get(t, 0), 1.25);
    EXPECT_EQ(vec.Get(t, 99), -7.5);
    EXPECT_EQ(vec.Get(t, 50), 0.0);  // zero-initialized
    EXPECT_TRUE(vec.Free(t).ok());
  });
}

TEST(GlobalVectorT, BulkRanges) {
  RunMain(4, [](Task& t) {
    auto vec = GlobalVector<std::int32_t>::CreateStriped(t, 256, 6).value();
    std::vector<std::int32_t> data(100);
    for (int i = 0; i < 100; ++i) data[static_cast<size_t>(i)] = i * i;
    vec.WriteRange(t, 50, data.data(), data.size());
    std::vector<std::int32_t> out(100);
    vec.ReadRange(t, 50, out.data(), out.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(vec.Get(t, 49), 0);
  });
}

TEST(GlobalVectorT, StripeBlockNeverSmallerThanElement) {
  RunMain(2, [](Task& t) {
    struct Big {
      char bytes[512];
    };
    // Requested 64-byte stripes are widened to fit the element.
    auto vec = GlobalVector<Big>::CreateStriped(t, 4, 6).value();
    Big b{};
    b.bytes[0] = 'x';
    vec.Set(t, 3, b);
    EXPECT_EQ(vec.Get(t, 3).bytes[0], 'x');
  });
}

TEST(GlobalVectorT, AttachFromAnotherTask) {
  ThreadedRuntime rt(ThreadedNodes(3));
  rt.registry().Register("writer", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    std::uint64_t count = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    ASSERT_TRUE(r.ReadU64(&count).ok());
    auto vec = GlobalVector<std::int64_t>::Attach(addr, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      vec.Set(t, i, static_cast<std::int64_t>(i) + 1000);
    }
  });
  rt.registry().Register("coll.main", [](Task& t) {
    auto vec = GlobalVector<std::int64_t>::CreateOnNode(t, 10, 2).value();
    ByteWriter w;
    w.WriteU64(vec.addr());
    w.WriteU64(vec.size());
    const Gpid g = t.Spawn("writer", w.TakeBuffer(), 1).value();
    (void)t.Join(g);
    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(vec.Get(t, i), static_cast<std::int64_t>(i) + 1000);
    }
  });
  rt.RunMain("coll.main");
}

TEST(GlobalCounterT, NextIsMonotonic) {
  RunMain(2, [](Task& t) {
    auto counter = GlobalCounter::Create(t).value();
    EXPECT_EQ(counter.Next(t), 0);
    EXPECT_EQ(counter.Next(t), 1);
    EXPECT_EQ(counter.Add(t, 10), 2);
    EXPECT_EQ(counter.Read(t), 12);
  });
}

constexpr std::int64_t kTotal = 97;

TEST(GlobalWorkQueueT, DrainsExactlyOnce) {
  // 4 workers drain 97 items: every index claimed exactly once.
  ThreadedRuntime rt(ThreadedNodes(4));
  static std::atomic<int> claims[kTotal];
  for (auto& c : claims) c = 0;

  rt.registry().Register("drainer", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter_addr = 0;
    std::int64_t total = 0;
    ASSERT_TRUE(r.ReadU64(&counter_addr).ok());
    ASSERT_TRUE(r.ReadI64(&total).ok());
    auto queue = GlobalWorkQueue::Attach(counter_addr, total);
    std::int64_t mine = 0;
    while (auto index = queue.TryClaim(t)) {
      claims[*index].fetch_add(1);
      ++mine;
    }
    ByteWriter w;
    w.WriteI64(mine);
    t.SetResult(w.TakeBuffer());
  });
  rt.registry().Register("coll.main", [](Task& t) {
    auto queue = GlobalWorkQueue::Create(t, kTotal).value();
    std::vector<Gpid> gs;
    for (int i = 0; i < 4; ++i) {
      ByteWriter w;
      w.WriteU64(queue.counter_addr());
      w.WriteI64(queue.total());
      gs.push_back(t.Spawn("drainer", w.TakeBuffer(), i).value());
    }
    std::int64_t total_claimed = 0;
    for (Gpid g : gs) {
      const auto res = t.Join(g).value();
      ByteReader r(res.data(), res.size());
      std::int64_t mine = 0;
      ASSERT_TRUE(r.ReadI64(&mine).ok());
      total_claimed += mine;
    }
    EXPECT_EQ(total_claimed, kTotal);
  });
  rt.RunMain("coll.main");

  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(claims[i].load(), 1) << "item " << i;
  }
}

TEST(GlobalWorkQueueT, EmptyQueueYieldsNothing) {
  RunMain(2, [](Task& t) {
    auto queue = GlobalWorkQueue::Create(t, 0).value();
    EXPECT_FALSE(queue.TryClaim(t).has_value());
  });
}

// --- Failure-aware paths -----------------------------------------------------
//
// A scripted Task whose atomic RPC times out on demand: collection handles
// must surface the Status and stay usable — no aborted process, no
// corrupted handle state, no lost or double-claimed work.

class FlakyAtomicTask final : public Task {
 public:
  // Every call whose 1-based sequence number is in `fail_on` returns
  // kTimeout WITHOUT applying the add (the frame never reached the home —
  // the "executed but reply lost" shape is the kernel dedupe's job, covered
  // by fault_injection_test).
  explicit FlakyAtomicTask(std::set<int> fail_on)
      : fail_on_(std::move(fail_on)) {}

  std::int64_t counter_value() const { return counter_; }
  int atomic_calls() const { return calls_; }

  Result<std::int64_t> AtomicFetchAdd(gmm::GlobalAddr,
                                      std::int64_t delta) override {
    ++calls_;
    if (fail_on_.count(calls_) > 0) {
      return Timeout("rpc to node 0 timed out after 3 attempt(s)");
    }
    const std::int64_t old = counter_;
    counter_ += delta;
    return old;
  }

  // Enough of the rest of the interface for GlobalCounter/WorkQueue.
  NodeId node() const override { return 0; }
  Gpid gpid() const override { return 1; }
  int num_nodes() const override { return 1; }
  const std::vector<std::uint8_t>& arg() const override { return arg_; }
  void SetResult(std::vector<std::uint8_t>) override {}
  Result<gmm::GlobalAddr> AllocStriped(std::uint64_t, std::uint8_t) override {
    return gmm::GlobalAddr{0x1000};
  }
  Result<gmm::GlobalAddr> AllocOnNode(std::uint64_t, NodeId) override {
    return gmm::GlobalAddr{0x1000};
  }
  Status Free(gmm::GlobalAddr) override { return Status::Ok(); }
  Status Read(gmm::GlobalAddr, void* out, std::uint64_t len) override {
    std::memset(out, 0, len);
    return Status::Ok();
  }
  Status Write(gmm::GlobalAddr, const void*, std::uint64_t) override {
    return Status::Ok();
  }
  Result<std::int64_t> AtomicCompareExchange(gmm::GlobalAddr, std::int64_t,
                                             std::int64_t) override {
    return Timeout("unused");
  }
  Status Lock(std::uint64_t) override { return Status::Ok(); }
  Status Unlock(std::uint64_t) override { return Status::Ok(); }
  Status Barrier(std::uint64_t, int) override { return Status::Ok(); }
  Result<Gpid> Spawn(const std::string&, std::vector<std::uint8_t>,
                     NodeId) override {
    return Internal("unused: spawn");
  }
  Result<std::vector<std::uint8_t>> Join(Gpid) override {
    return Internal("unused: join");
  }
  void Compute(double) override {}
  void Print(const std::string&) override {}
  Result<std::vector<proto::PsEntry>> ClusterPs() override {
    return Internal("unused: ps");
  }
  Result<std::vector<std::map<std::string, std::uint64_t>>> ClusterStats()
      override {
    return Internal("unused: stats");
  }
  Status PublishName(const std::string&, std::uint64_t) override {
    return Status::Ok();
  }
  Result<std::uint64_t> LookupName(const std::string&) override {
    return Internal("unused: lookup");
  }

 private:
  std::set<int> fail_on_;
  std::vector<std::uint8_t> arg_;
  std::int64_t counter_ = 0;
  int calls_ = 0;
};

TEST(GlobalCounterT, TimeoutSurfacesWithoutCorruptingHandle) {
  FlakyAtomicTask t({2});
  auto counter = GlobalCounter::Create(t).value();

  EXPECT_EQ(counter.TryAdd(t, 1).value(), 0);
  // The timed-out call surfaces as a Status...
  const auto failed = counter.TryAdd(t, 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kTimeout);
  // ...and the handle is untouched: the same handle keeps working and the
  // sequence resumes exactly where the home left it (nothing was applied).
  EXPECT_EQ(counter.TryAdd(t, 1).value(), 1);
  EXPECT_EQ(counter.TryAdd(t, 1).value(), 2);
}

TEST(GlobalWorkQueueT, TimeoutMidDrainLosesNoItems) {
  // Claims 1, 4 and 7 time out; the drain loop retries and must still see
  // every index exactly once, in order, with the total untouched.
  FlakyAtomicTask t({1, 4, 7});
  const std::int64_t kTotal = 6;
  auto queue = GlobalWorkQueue::Create(t, kTotal).value();
  EXPECT_EQ(queue.total(), kTotal);

  std::vector<std::int64_t> claimed;
  int timeouts = 0;
  for (;;) {
    auto claim = queue.Claim(t);
    if (!claim.ok()) {
      EXPECT_EQ(claim.status().code(), ErrorCode::kTimeout);
      ++timeouts;
      ASSERT_LT(timeouts, 10) << "claim never recovered";
      continue;  // retry — the add was never applied
    }
    if (!claim->has_value()) break;  // drained
    claimed.push_back(**claim);
  }

  EXPECT_EQ(timeouts, 3);
  ASSERT_EQ(claimed.size(), static_cast<size_t>(kTotal));
  for (std::int64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(claimed[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(queue.total(), kTotal);
  // Drained-queue detection also survived the failures.
  EXPECT_FALSE(queue.Claim(t).value().has_value());
}

TEST(GlobalWorkQueueT, TimeoutOnDrainedQueueStillTerminates) {
  // A timeout on the very call that would report "drained" must not turn
  // into a phantom item or an infinite claim loop.
  FlakyAtomicTask t({3});
  auto queue = GlobalWorkQueue::Create(t, 2).value();
  EXPECT_EQ(queue.Claim(t).value().value(), 0);
  EXPECT_EQ(queue.Claim(t).value().value(), 1);
  EXPECT_EQ(queue.Claim(t).status().code(), ErrorCode::kTimeout);
  EXPECT_FALSE(queue.Claim(t).value().has_value());
}

}  // namespace
}  // namespace dse
