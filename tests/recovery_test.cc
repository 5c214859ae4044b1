// Recovery-subsystem suite: the tests that justify calling node death
// survivable (docs/recovery.md).
//
// Layers covered, bottom up:
//   * DelayLine::DropNode — a dead primary's frames still sitting in delay
//     queues must never surface after its backup was promoted,
//   * end-to-end on the ThreadedRuntime with replication = 1: a mid-run
//     kill of the node HOMING the application's data still produces the
//     exact serial answer; a lock held by the dead node is released by the
//     eviction; a barrier whose member died still completes; joins of tasks
//     on the dead node fail kUnavailable, or transparently restart when the
//     task was registered idempotent and --restart-tasks is on,
//   * end-to-end on the SimRuntime: the same kill schedule under
//     replication replays bit-identically across runs,
//   * replication = 0 keeps the PR 3 degradation contract: calls to the
//     dead node fail kUnavailable, nothing fails over,
//   * the serving front door (docs/scheduling.md): a worker death with
//     jobs queued and running re-places orphaned gang members on the
//     survivors, and a retried JobSubmitReq is admitted exactly once
//     through the at-most-once cache.
//
// Scheduling discipline: these tests run under an arbitrary parallel ctest
// load, so nothing here times a wall-clock window. Kills that must land
// "while X holds" are condition-triggered (a watcher thread observes the
// precondition via counters or task-side atomics, then calls KillNode);
// waits are poll-until-condition loops with generous deadlines; and the
// heartbeat timeout is wide (400 ms at a 20 ms period), far beyond the
// sender-thread stalls a parallel ctest load causes, while the monitor
// credits its own descheduled time back — so starvation delays detection
// rather than manufacturing a false eviction. Frame-scheduled kills remain
// only where the workload's own traffic pumps the injector, which makes
// them load-independent.
//
// The acceptance program is the red-black Gauss-Seidel sweep of
// fault_injection_test.cc with one decisive difference: the array is homed
// ON the node the kill schedule targets, so the right answer is only
// reachable through the replicated backup.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "dse/collections.h"
#include "dse/sched/serving.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "net/fault.h"
#include "platform/profile.h"
#include "tests/message_faults.h"

namespace dse {
namespace {

using net::FaultPlan;

std::uint64_t SumCounter(const std::vector<MetricsSnapshot>& per_node,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& snap : per_node) {
    if (const auto it = snap.find(name); it != snap.end()) total += it->second;
  }
  return total;
}

std::uint64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

// --- DelayLine regression ---------------------------------------------------

// A write the dead primary sent before the kill but still held in a delay
// queue must be discarded at eviction time — releasing it after the backup
// took over would silently overwrite newer state.
TEST(DelayLineRecovery, DropNodeDiscardsHeldFramesBothDirections) {
  net::DelayLine<int> line;
  line.Hold(3, 0, 100, 5);  // from the doomed node
  line.Hold(0, 3, 200, 5);  // to the doomed node
  line.Hold(1, 2, 300, 1);  // an innocent link
  EXPECT_EQ(line.DropNode(3), 2u);
  EXPECT_FALSE(line.empty());
  // The innocent link's frame still ages and releases normally.
  const std::vector<int> due = line.OnFramePassed(1, 2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 300);
  EXPECT_TRUE(line.empty());
  // Dropping an absent node is a no-op.
  EXPECT_EQ(line.DropNode(3), 0u);
}

// --- The acceptance program: Gauss-Seidel homed on the doomed node ----------

constexpr int kCells = 26;  // two boundary cells + 24 interior
constexpr int kSweeps = 6;
constexpr int kWorkers = 3;
constexpr NodeId kDoomed = 3;  // never the coordinator (lowest live rank)

std::vector<double> SerialGaussSeidel() {
  std::vector<double> x(kCells, 0.0);
  x[0] = 1.0;
  x[kCells - 1] = 2.0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (int color = 0; color < 2; ++color) {
      for (int i = 1; i < kCells - 1; ++i) {
        if (i % 2 != color) continue;
        x[static_cast<size_t>(i)] = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                           x[static_cast<size_t>(i + 1)]);
      }
    }
  }
  return x;
}

// Workers split the interior cells and are pinned to surviving nodes 0..2;
// the ARRAY is homed on the doomed node, so every read and write crosses to
// the node that dies mid-run. Barrier ids are multiples of num_nodes so
// their home is node 0 (the coordinator, which the plan never kills).
void RegisterGaussOnDoomed(TaskRegistry& registry) {
  registry.Register("gs_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    std::int64_t lo = 0, hi = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    ASSERT_TRUE(r.ReadI64(&lo).ok());
    ASSERT_TRUE(r.ReadI64(&hi).ok());

    std::vector<double> x(kCells);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        t.ReadArray(addr, x.data(), x.size());
        for (std::int64_t i = lo; i <= hi; ++i) {
          if (i % 2 != color) continue;
          const double v = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                  x[static_cast<size_t>(i + 1)]);
          t.WriteValue(addr + static_cast<std::uint64_t>(i) * 8, v);
        }
        const std::uint64_t barrier_id =
            static_cast<std::uint64_t>((sweep * 2 + color + 1)) *
            static_cast<std::uint64_t>(t.num_nodes());
        ASSERT_TRUE(t.Barrier(barrier_id, kWorkers).ok());
      }
    }
  });

  registry.Register("gs_main", [](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, kDoomed);
    ASSERT_TRUE(addr.ok());
    std::vector<double> init(kCells, 0.0);
    init[0] = 1.0;
    init[kCells - 1] = 2.0;
    t.WriteArray(*addr, init.data(), init.size());

    std::vector<Gpid> workers;
    const int span = (kCells - 2) / kWorkers;
    for (int w = 0; w < kWorkers; ++w) {
      ByteWriter arg;
      arg.WriteU64(*addr);
      arg.WriteI64(1 + w * span);
      arg.WriteI64(w == kWorkers - 1 ? kCells - 2 : (w + 1) * span);
      auto gpid = t.Spawn("gs_worker", arg.TakeBuffer(), w);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    for (Gpid g : workers) ASSERT_TRUE(t.Join(g).ok());

    std::vector<double> got(kCells);
    t.ReadArray(*addr, got.data(), got.size());
    const std::vector<double> want = SerialGaussSeidel();
    std::int64_t mismatches = 0;
    for (int i = 0; i < kCells; ++i) {
      if (std::memcmp(&got[static_cast<size_t>(i)],
                      &want[static_cast<size_t>(i)], 8) != 0) {
        EXPECT_EQ(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
            << "cell " << i;
        ++mismatches;
      }
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });
}

// Parameterized variant of the acceptance program for the self-healing
// tests: the array is homed on `home` and worker `w` is pinned to
// `pins[w]`, so kill/sever schedules can target nodes hosting no task
// (the runtimes model *network* death — a killed node's task threads and
// coroutines keep running, so doomed nodes must stay task-free; see
// docs/fault_model.md). When `resume_gate` is non-null (threaded only —
// it spins on the wall clock), the main task waits for the test body to
// set it before the final verification read, guaranteeing that read
// happens after every staged fault has fired.
void RegisterGaussHomedOn(TaskRegistry& registry, NodeId home,
                          std::array<NodeId, kWorkers> pins,
                          std::atomic<bool>* resume_gate = nullptr) {
  registry.Register("gs_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    std::int64_t lo = 0, hi = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    ASSERT_TRUE(r.ReadI64(&lo).ok());
    ASSERT_TRUE(r.ReadI64(&hi).ok());
    std::vector<double> x(kCells);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        t.ReadArray(addr, x.data(), x.size());
        for (std::int64_t i = lo; i <= hi; ++i) {
          if (i % 2 != color) continue;
          const double v = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                  x[static_cast<size_t>(i + 1)]);
          t.WriteValue(addr + static_cast<std::uint64_t>(i) * 8, v);
        }
        const std::uint64_t barrier_id =
            static_cast<std::uint64_t>((sweep * 2 + color + 1)) *
            static_cast<std::uint64_t>(t.num_nodes());
        ASSERT_TRUE(t.Barrier(barrier_id, kWorkers).ok());
      }
    }
  });

  registry.Register("gs_main", [home, pins, resume_gate](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, home);
    ASSERT_TRUE(addr.ok());
    std::vector<double> init(kCells, 0.0);
    init[0] = 1.0;
    init[kCells - 1] = 2.0;
    t.WriteArray(*addr, init.data(), init.size());

    std::vector<Gpid> workers;
    const int span = (kCells - 2) / kWorkers;
    for (int w = 0; w < kWorkers; ++w) {
      ByteWriter arg;
      arg.WriteU64(*addr);
      arg.WriteI64(1 + w * span);
      arg.WriteI64(w == kWorkers - 1 ? kCells - 2 : (w + 1) * span);
      auto gpid = t.Spawn("gs_worker", arg.TakeBuffer(),
                          pins[static_cast<size_t>(w)]);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    for (Gpid g : workers) ASSERT_TRUE(t.Join(g).ok());

    if (resume_gate != nullptr) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(45);
      while (!resume_gate->load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      EXPECT_TRUE(resume_gate->load()) << "staged fault never fired";
    }

    std::vector<double> got(kCells);
    t.ReadArray(*addr, got.data(), got.size());
    const std::vector<double> want = SerialGaussSeidel();
    std::int64_t mismatches = 0;
    for (int i = 0; i < kCells; ++i) {
      if (std::memcmp(&got[static_cast<size_t>(i)],
                      &want[static_cast<size_t>(i)], 8) != 0) {
        EXPECT_EQ(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
            << "cell " << i;
        ++mismatches;
      }
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });
}

std::int64_t ResultI64(const std::vector<std::uint8_t>& result) {
  ByteReader r(result.data(), result.size());
  std::int64_t v = -1;
  EXPECT_TRUE(r.ReadI64(&v).ok());
  return v;
}

FaultPlan KillPlan(std::uint64_t at) {
  FaultPlan plan;
  plan.seed = 21;
  plan.kills.push_back({kDoomed, at});
  return plan;
}

// A frame count no run ever reaches: keeps the injector installed (KillNode
// needs one) while guaranteeing the scheduled kill never fires on its own —
// the test body triggers the real one with KillNode once its precondition
// provably holds.
constexpr std::uint64_t kNeverFires = ~0ull;

// --- Threaded runtime -------------------------------------------------------

ThreadedOptions RecoveryThreadedOptions(std::uint64_t kill_at) {
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan = KillPlan(kill_at);
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  // Frequent heartbeats keep the latch responsive; the wide timeout keeps a
  // CPU-starved sender thread from manufacturing a false eviction, which
  // would be an extra concurrent node death outside the f=1-over-time
  // contract these tests verify.
  o.heartbeat.period_ms = 20;
  o.heartbeat.timeout_ms = 400;
  o.replication = 1;
  return o;
}

// Acceptance, real concurrency: the node homing the array dies mid-sweep
// and the survivors still produce the exact serial answer, because every
// acked mutation was already on the backup and unacked ones are re-driven
// against the promoted shadow through the at-most-once cache.
TEST(RecoveryThreaded, GaussSeidelBitForBitWithDataHomeKilled) {
  ThreadedOptions o = RecoveryThreadedOptions(400);
  ThreadedRuntime rt(o);
  RegisterGaussOnDoomed(rt.registry());

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);

  EXPECT_TRUE(rt.NodeKilled(kDoomed));
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(stats, "recovery.promotions"), 1u);
  EXPECT_GE(SumCounter(stats, "gmm.repl.forwards"), 1u);
}

// The same program with replication = 0 keeps PR 3's contract: nothing
// fails over, calls to the dead node surface kUnavailable once the prober
// latches it. (The full-suite no-regression proof is that every pre-existing
// fault_injection test runs with replication = 0.)
TEST(RecoveryThreaded, ReplicationOffDegradesToUnavailable) {
  ThreadedOptions o = RecoveryThreadedOptions(60);
  o.replication = 0;
  ThreadedRuntime rt(o);

  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, kDoomed);
    ASSERT_TRUE(addr.ok());
    const std::int64_t v = 7;
    ASSERT_TRUE(t.Write(*addr, &v, sizeof(v)).ok());
    // Poll instead of timing the prober: writes keep succeeding until the
    // kill fires (the write traffic itself pumps the injector) and the
    // silence outlasts the liveness timeout — whenever that happens under
    // the current machine load.
    Status s = Status::Ok();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      s = t.Write(*addr, &v, sizeof(v));
      if (!s.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ByteWriter w;
    w.WriteI64(s.code() == ErrorCode::kUnavailable ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
  EXPECT_EQ(SumCounter(rt.ClusterStats(), "recovery.promotions"), 0u);
}

// A lock held by a task on the dead node is released by the eviction: the
// home grants it to the next waiter instead of wedging the cluster on an
// unlock that can never arrive.
TEST(RecoveryThreaded, LockHeldByDeadNodeReleasesOnEviction) {
  ThreadedOptions o = RecoveryThreadedOptions(kNeverFires);
  ThreadedRuntime rt(o);

  std::atomic<bool> lock_held{false};
  std::atomic<bool> killed{false};

  // Holder (pinned to the doomed node): takes the lock, signals the test
  // body, then idles until the kill has provably fired. Its eventual
  // Unlock is a one-way post the injector discards — exactly the
  // lost-unlock the eviction path must compensate for. No blocking calls
  // after the kill, so the task thread drains cleanly.
  rt.registry().Register("holder", [&lock_held, &killed](Task& t) {
    ASSERT_TRUE(t.Lock(1).ok());
    lock_held.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    (void)t.Unlock(1);  // dropped: the node is dead by now
  });

  rt.registry().Register("main", [&killed](Task& t) {
    auto gpid = t.Spawn("holder", {}, kDoomed);
    ASSERT_TRUE(gpid.ok());
    // Contend only once the holder is certainly dead while holding: the
    // grant below can then only come from the eviction's compensation.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(killed.load()) << "kill never fired";
    const auto start = std::chrono::steady_clock::now();
    const Status s = t.Lock(1);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_LT(elapsed_ms, 8000);
    if (s.ok()) {
      EXPECT_TRUE(t.Unlock(1).ok());
    }
    ByteWriter w;
    w.WriteI64(s.ok() && elapsed_ms < 8000 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  std::thread watcher([&rt, &lock_held, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!lock_held.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rt.KillNode(kDoomed);
    killed.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
  EXPECT_GE(SumCounter(rt.ClusterStats(), "recovery.evictions"), 1u);
}

// A barrier whose member died still completes: the eviction forgives the
// dead participant's share for the parked episode and every later one —
// without assuming anything about nodes that never entered the barrier.
TEST(RecoveryThreaded, BarrierCompletesAfterMemberEviction) {
  ThreadedOptions o = RecoveryThreadedOptions(kNeverFires);
  ThreadedRuntime rt(o);

  std::atomic<bool> episode1_done{false};
  std::atomic<bool> killed{false};

  // Partner (on the doomed node) joins episode 1 — making it a member —
  // then idles through its death and never enters episode 2.
  rt.registry().Register("partner", [&killed](Task& t) {
    ASSERT_TRUE(t.Barrier(8, 2).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  rt.registry().Register("main", [&episode1_done, &killed](Task& t) {
    auto gpid = t.Spawn("partner", {}, kDoomed);
    ASSERT_TRUE(gpid.ok());
    ASSERT_TRUE(t.Barrier(8, 2).ok());  // episode 1: both alive
    episode1_done.store(true);
    // Enter episode 2 only once the partner is certainly dead, so the
    // completion below can only come from the eviction's forgiveness.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(killed.load()) << "kill never fired";
    const auto start = std::chrono::steady_clock::now();
    const Status s = t.Barrier(8, 2);  // episode 2: partner is dead
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_LT(elapsed_ms, 8000);
    ByteWriter w;
    w.WriteI64(s.ok() && elapsed_ms < 8000 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  std::thread watcher([&rt, &episode1_done, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!episode1_done.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rt.KillNode(kDoomed);
    killed.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
}

// Joining a task that lived on the evicted node surfaces kUnavailable —
// process state is not replicated, and silently losing a join would be
// worse than failing it.
TEST(RecoveryThreaded, JoinOfTaskOnDeadNodeFailsUnavailable) {
  ThreadedOptions o = RecoveryThreadedOptions(kNeverFires);
  ThreadedRuntime rt(o);

  std::atomic<bool> spawned{false};
  std::atomic<bool> killed{false};

  // The sleeper idles until its node is certainly dead, so it can never
  // have delivered a result the join could legitimately return.
  rt.registry().Register("sleeper", [&killed](Task&) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  rt.registry().Register("main", [&spawned, &killed](Task& t) {
    auto gpid = t.Spawn("sleeper", {}, kDoomed);
    ASSERT_TRUE(gpid.ok());
    spawned.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(killed.load()) << "kill never fired";
    const auto joined = t.Join(*gpid);
    ByteWriter w;
    w.WriteI64(!joined.ok() &&
                       joined.status().code() == ErrorCode::kUnavailable
                   ? 0
                   : 1);
    t.SetResult(w.TakeBuffer());
  });

  std::thread watcher([&rt, &spawned, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spawned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rt.KillNode(kDoomed);
    killed.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
}

// With --restart-tasks, a task registered idempotent is transparently
// re-spawned from the client's spawn ledger on the node now serving the
// dead host's ring slot, and the join returns its (recomputed) result.
TEST(RecoveryThreaded, IdempotentTaskRestartsOnSurvivor) {
  ThreadedOptions o = RecoveryThreadedOptions(kNeverFires);
  o.restart_tasks = true;
  ThreadedRuntime rt(o);

  std::atomic<bool> spawned{false};
  std::atomic<bool> killed{false};

  // The original copy (on the doomed node) blocks until the kill has
  // fired, so its result can never be the one the join returns; the
  // restarted copy on the survivor sees `killed` already set and answers
  // immediately.
  rt.registry().RegisterIdempotent("slow_square", [&killed](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::int64_t x = 0;
    ASSERT_TRUE(r.ReadI64(&x).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ByteWriter w;
    w.WriteI64(x * x);
    t.SetResult(w.TakeBuffer());
  });

  rt.registry().Register("main", [&spawned](Task& t) {
    ByteWriter arg;
    arg.WriteI64(7);
    auto gpid = t.Spawn("slow_square", arg.TakeBuffer(), kDoomed);
    ASSERT_TRUE(gpid.ok());
    spawned.store(true);
    const auto joined = t.Join(*gpid);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    ByteReader r(joined->data(), joined->size());
    std::int64_t sq = 0;
    ASSERT_TRUE(r.ReadI64(&sq).ok());
    ByteWriter w;
    w.WriteI64(sq == 49 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  std::thread watcher([&rt, &spawned, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!spawned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    rt.KillNode(kDoomed);
    killed.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
  EXPECT_GE(SumCounter(rt.ClusterStats(), "recovery.restarts"), 1u);
}

// Collection contents survive the death of the node homing them: a
// self-scheduling work queue (atomic claim counter) and its results vector
// both live on the doomed node; every index must still be claimed exactly
// once — a claim whose response died with the primary is re-driven against
// the promoted shadow and replays the recorded index instead of skipping
// or double-claiming.
TEST(RecoveryThreaded, WorkQueueOnKilledNodeClaimsEachIndexOnce) {
  ThreadedOptions o = RecoveryThreadedOptions(300);
  ThreadedRuntime rt(o);

  constexpr std::int64_t kItems = 120;
  rt.registry().Register("wq_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t counter = 0, results = 0;
    ASSERT_TRUE(r.ReadU64(&counter).ok());
    ASSERT_TRUE(r.ReadU64(&results).ok());
    const GlobalWorkQueue queue = GlobalWorkQueue::Attach(counter, kItems);
    while (true) {
      auto claimed = queue.Claim(t);
      ASSERT_TRUE(claimed.ok()) << claimed.status().ToString();
      if (!claimed->has_value()) break;
      auto old = t.AtomicFetchAdd(
          results + static_cast<std::uint64_t>(**claimed) * 8, 1);
      ASSERT_TRUE(old.ok()) << old.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  rt.registry().Register("main", [](Task& t) {
    auto queue = GlobalWorkQueue::Create(t, kItems, kDoomed);
    ASSERT_TRUE(queue.ok());
    auto results = t.AllocOnNode(kItems * 8, kDoomed);
    ASSERT_TRUE(results.ok());
    const std::vector<std::int64_t> zeros(kItems, 0);
    t.WriteArray(*results, zeros.data(), zeros.size());

    std::vector<Gpid> workers;
    for (int w = 0; w < kWorkers; ++w) {
      ByteWriter arg;
      arg.WriteU64(queue->counter_addr());
      arg.WriteU64(*results);
      auto gpid = t.Spawn("wq_worker", arg.TakeBuffer(), w);
      ASSERT_TRUE(gpid.ok());
      workers.push_back(*gpid);
    }
    for (Gpid g : workers) ASSERT_TRUE(t.Join(g).ok());

    std::vector<std::int64_t> marks(kItems);
    t.ReadArray(*results, marks.data(), marks.size());
    std::int64_t mismatches = 0;
    for (std::int64_t m : marks) {
      if (m != 1) ++mismatches;
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  EXPECT_TRUE(rt.NodeKilled(kDoomed));
  EXPECT_GE(SumCounter(rt.ClusterStats(), "recovery.promotions"), 1u);
}

// --- Self-healing membership: threaded runtime ------------------------------

// The acceptance criterion of docs/recovery.md's self-healing layer: with
// replication = 1, kill the node homing the data, wait for the promoted
// home to re-replicate to its new backup, then kill the promoted node too.
// Two sequential (non-concurrent) deaths — and the final array is still
// bit-for-bit the serial answer, because the second death fails over to
// the replica the re-replication stream just rebuilt.
TEST(RecoveryThreaded, TwoSequentialDeathsWithReReplicationBetween) {
  constexpr NodeId kFirstDead = 2;   // homes the array; backup = node 3
  constexpr NodeId kSecondDead = 3;  // promotes, re-replicates to node 0
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 21;
  o.fault_plan.kills.push_back({kFirstDead, 300});
  o.rpc_deadline_ms = 60;
  // The per-call retry budget must outlast the liveness window below: a
  // call to the dying node keeps retrying until the eviction sweep fails
  // it over, so attempts * deadline (+ backoffs) > heartbeat.timeout_ms or
  // the call times out before failover can rescue it.
  o.rpc_max_attempts = 40;
  o.rpc_backoff_base_ms = 1;
  // This is the longest-running threaded scenario (two real deaths with a
  // state transfer between), so it exposes the largest window for a loaded
  // machine to starve heartbeat threads — and a false suspicion here is
  // worse than elsewhere: a false eviction of the live node mid-transfer
  // makes the second death effectively concurrent with the first, outside
  // the f=1-over-time contract, and the image never reconverges. The wide
  // timeout is what keeps starved sender threads from masquerading as a
  // concurrent death.
  o.heartbeat.period_ms = 20;
  o.heartbeat.timeout_ms = 400;
  o.replication = 1;
  ThreadedRuntime rt(o);

  std::atomic<bool> second_kill_done{false};
  RegisterGaussHomedOn(rt.registry(), kFirstDead, {0, 1, 0},
                       &second_kill_done);

  // The second death is condition-gated, not scheduled: it must not fire
  // until the new primary reports the re-replication complete (killing
  // earlier would legitimately lose the un-rebuilt replica). The gate reads
  // node 3's OWN counter, not the cluster sum: the first eviction starts
  // TWO streams — node 3 re-replicates the promoted home-2 to node 0 (the
  // one that must finish) and node 1 re-replicates home-1, whose backup
  // just died, to node 3. The sender bumps recovery.rereplications on
  // completion, so the cluster sum hits 1 when EITHER stream lands; gating
  // on it can kill node 3 mid-transfer — a second death before f = 1 is
  // restored, which the contract does not cover (and which then correctly
  // degrades to kUnavailable instead of the serial answer).
  std::thread watcher([&rt, &second_kill_done] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto s = rt.ClusterStats();
      if (static_cast<size_t>(kSecondDead) < s.size() &&
          Get(s[kSecondDead], "recovery.rereplications") >= 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    rt.KillNode(kSecondDead);
    second_kill_done.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);
  watcher.join();

  EXPECT_TRUE(rt.NodeKilled(kFirstDead));
  EXPECT_TRUE(rt.NodeKilled(kSecondDead));
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.rereplications"), 1u);
  EXPECT_GE(SumCounter(stats, "gmm.xfer.chunks"), 1u);
  EXPECT_GE(SumCounter(stats, "gmm.xfer.bytes"), 1u);
  EXPECT_GE(SumCounter(stats, "recovery.promotions"), 2u);
}

// Quorum-guarded eviction: sever a single node away from the other three.
// The majority side holds a quorum and evicts the minority node; the
// minority node can reach only itself, parks (recovery.quorum_parks), and
// never applies an eviction of its own — a severed minority must not fork
// the membership by evicting the majority.
TEST(RecoveryThreaded, SeveredMinorityParksInsteadOfForking) {
  constexpr NodeId kIsolated = 3;
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 21;
  for (NodeId n = 0; n < 3; ++n) {
    o.fault_plan.severs.push_back({kIsolated, n, 0, -1});
  }
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat.period_ms = 20;
  o.heartbeat.timeout_ms = 400;  // wide: see RecoveryThreadedOptions
  o.replication = 1;
  ThreadedRuntime rt(o);

  // The sweep itself finishes faster than the liveness timeout can latch
  // the severed node, so gate the final read on the membership reaction
  // having actually happened: majority evicted, minority parked.
  std::atomic<bool> reacted{false};
  RegisterGaussHomedOn(rt.registry(), 1, {0, 1, 2}, &reacted);
  std::thread watcher([&rt, &reacted] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto s = rt.ClusterStats();
      if (SumCounter(s, "recovery.evictions") >= 1 &&
          Get(s[kIsolated], "recovery.quorum_parks") >= 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    reacted.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);
  watcher.join();

  const auto stats = rt.ClusterStats();
  // The minority node parked and performed ZERO evictions.
  EXPECT_GE(Get(stats[kIsolated], "recovery.quorum_parks"), 1u);
  EXPECT_EQ(Get(stats[kIsolated], "recovery.evictions"), 0u);
  // The majority side evicted the unreachable node.
  EXPECT_GE(Get(stats[0], "recovery.evictions") +
                Get(stats[1], "recovery.evictions") +
                Get(stats[2], "recovery.evictions"),
            1u);
}

// A symmetric 2-2 partition leaves NO side with a quorum: every node parks,
// nobody is evicted, in-flight calls fail over and wait — and when the
// partition heals, the latched suspicions are revoked and the parked calls
// complete with the exact answer. Total evictions across the run: zero.
TEST(RecoveryThreaded, SymmetricPartitionParksAndResumesAfterHeal) {
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 21;
  // {0,1} | {2,3} from the first frame; heals ~1 s in (heartbeat traffic
  // alone advances the injector's global frame count).
  o.fault_plan.severs.push_back({0, 2, 0, 600});
  o.fault_plan.severs.push_back({0, 3, 0, 600});
  o.fault_plan.severs.push_back({1, 2, 0, 600});
  o.fault_plan.severs.push_back({1, 3, 0, 600});
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat.period_ms = 20;
  o.heartbeat.timeout_ms = 400;  // wide: see RecoveryThreadedOptions
  o.replication = 1;
  ThreadedRuntime rt(o);

  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, 2);  // across the partition
    ASSERT_TRUE(addr.ok());
    // This write parks with the cluster and lands only after the heal.
    t.WriteValue<std::int64_t>(*addr, 77);
    const std::int64_t got = t.ReadValue<std::int64_t>(*addr);
    ByteWriter w;
    w.WriteI64(got == 77 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);

  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.quorum_parks"), 2u);
  EXPECT_EQ(SumCounter(stats, "recovery.evictions"), 0u);
}

// Node rejoin: an evicted node that comes back (kill ... revive) learns of
// its eviction from the coordinator's re-announcement, resets, is
// re-admitted under a bumped epoch, gets its home state handed back over
// the transfer machinery, and serves again — including accepting new
// idempotent task placements. The value written before the death must read
// back bit-identically from the rejoined node.
TEST(RecoveryThreaded, EvictedNodeRejoinsAndServesAgain) {
  constexpr NodeId kBouncer = 3;
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 21;
  o.fault_plan.kills.push_back({kBouncer, 200, 1500});
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat.period_ms = 20;
  o.heartbeat.timeout_ms = 400;  // wide: see RecoveryThreadedOptions
  o.replication = 1;
  ThreadedRuntime rt(o);

  rt.registry().RegisterIdempotent("echo7", [](Task& t) {
    ByteWriter w;
    w.WriteI64(7);
    t.SetResult(w.TakeBuffer());
  });

  std::atomic<bool> rejoined{false};
  rt.registry().Register("main", [&rejoined](Task& t) {
    auto addr = t.AllocOnNode(8, kBouncer);
    ASSERT_TRUE(addr.ok());
    t.WriteValue<std::int64_t>(*addr, 42);  // replicated to node 0's shadow

    // Wait out death, eviction, revival and re-admission (the test body
    // flips the flag when the coordinator counts the rejoin).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(40);
    while (!rejoined.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(rejoined.load()) << "node never rejoined";

    // Served by the rejoined node after the hand-back: same bits.
    const std::int64_t before = t.ReadValue<std::int64_t>(*addr);
    t.WriteValue<std::int64_t>(*addr, 43);
    const std::int64_t after = t.ReadValue<std::int64_t>(*addr);
    // And the node accepts idempotent placements again.
    auto gpid = t.Spawn("echo7", {}, kBouncer);
    bool echoed = false;
    if (gpid.ok()) {
      auto joined = t.Join(*gpid);
      if (joined.ok()) {
        ByteReader r(joined->data(), joined->size());
        std::int64_t v = 0;
        echoed = r.ReadI64(&v).ok() && v == 7;
      }
    }
    ByteWriter w;
    w.WriteI64(before == 42 && after == 43 && echoed ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  std::thread watcher([&rt, &rejoined] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(35);
    while (std::chrono::steady_clock::now() < deadline &&
           SumCounter(rt.ClusterStats(), "recovery.rejoins") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    rejoined.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();

  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.rejoins"), 1u);
  EXPECT_GE(SumCounter(stats, "gmm.xfer.chunks"), 1u);
}

// --- Simulated runtime ------------------------------------------------------

// Acceptance, simulation: same program, same kill of the data's home node,
// plus frame delays so the dead node's held frames exercise the DropNode
// drain — the answer is exact and three independent runs replay
// bit-identically (makespan, every counter, the injector's tallies).
SimOptions DataHomeKilledSimOptions() {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.fault_plan = KillPlan(400);
  opts.fault_plan.delay_p = 0.02;
  opts.fault_plan.delay_frames = 2;
  opts.rpc_deadline_ms = 50;
  opts.rpc_max_attempts = 10;
  opts.rpc_backoff_base_ms = 1;
  opts.replication = 1;
  return opts;
}

TEST(RecoverySim, GaussSeidelSurvivesKillAndReplaysBitIdentically) {
  SimRuntime rt(DataHomeKilledSimOptions());
  RegisterGaussOnDoomed(rt.registry());

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");
  const SimReport c = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.promotions"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "gmm.repl.forwards"), 1u);

  for (const SimReport* other : {&b, &c}) {
    EXPECT_EQ(a.virtual_seconds, other->virtual_seconds);
    EXPECT_EQ(a.messages, other->messages);
    EXPECT_EQ(a.wire_frames, other->wire_frames);
    EXPECT_EQ(a.main_result, other->main_result);
    EXPECT_EQ(a.node_stats, other->node_stats);
    EXPECT_EQ(a.fault_counters, other->fault_counters);
  }
}

// Replication off, fault-free: the sim's message count is the baseline the
// replication ablation in bench_snapshot.sh compares against. This guards
// the invariant the ablation relies on: replication = 1 changes message
// counts only by its ReplicateReq/Ack traffic, never the application's own
// request stream.
TEST(RecoverySim, ReplicationAddsOnlyReplicationTraffic) {
  SimOptions base;
  base.profile = platform::SunOsSparc();
  base.num_processors = 4;
  SimRuntime rt0(base);
  RegisterGaussOnDoomed(rt0.registry());
  const SimReport r0 = rt0.Run("gs_main");
  EXPECT_EQ(ResultI64(r0.main_result), 0);

  SimOptions repl = base;
  repl.replication = 1;
  SimRuntime rt1(repl);
  RegisterGaussOnDoomed(rt1.registry());
  const SimReport r1 = rt1.Run("gs_main");
  EXPECT_EQ(ResultI64(r1.main_result), 0);

  const std::uint64_t forwards =
      SumCounter(r1.node_stats, "gmm.repl.forwards");
  EXPECT_GE(forwards, 1u);
  // Every forward is one ReplicateReq plus one ReplicateAck.
  EXPECT_EQ(r1.messages, r0.messages + 2 * forwards);
}

// --- Self-healing membership: simulated runtime -----------------------------

SimOptions SelfHealingSimOptions() {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.fault_plan.seed = 21;
  opts.rpc_deadline_ms = 50;
  opts.rpc_max_attempts = 10;
  opts.rpc_backoff_base_ms = 1;
  opts.replication = 1;
  return opts;
}

// The two-sequential-deaths acceptance run, deterministic edition: node 2
// (homing the array) dies, node 3 promotes and re-replicates to node 0,
// then node 3 dies too — and the sweep still lands bit-for-bit on the
// serial answer, identically across runs.
SimOptions TwoSequentialDeathsSimOptions() {
  SimOptions opts = SelfHealingSimOptions();
  opts.fault_plan.kills.push_back({2, 400});
  opts.fault_plan.kills.push_back({3, 650});
  return opts;
}

TEST(RecoverySim, TwoSequentialDeathsBitForBit) {
  SimRuntime rt(TwoSequentialDeathsSimOptions());
  RegisterGaussHomedOn(rt.registry(), 2, {0, 1, 0});

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 2u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.rereplications"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "gmm.xfer.chunks"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.promotions"), 2u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

// Deterministic minority-park: node 3 is severed from everyone from frame
// zero and never healed. The {0,1,2} side holds a quorum and evicts it;
// node 3 itself parks and applies no eviction of its own.
SimOptions SeveredMinoritySimOptions() {
  SimOptions opts = SelfHealingSimOptions();
  for (NodeId n = 0; n < 3; ++n) {
    opts.fault_plan.severs.push_back({3, n, 0, -1});
  }
  return opts;
}

TEST(RecoverySim, SeveredMinorityParksDeterministically) {
  SimRuntime rt(SeveredMinoritySimOptions());
  RegisterGaussHomedOn(rt.registry(), 1, {0, 1, 2});

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_GE(Get(a.node_stats[3], "recovery.quorum_parks"), 1u);
  EXPECT_EQ(Get(a.node_stats[3], "recovery.evictions"), 0u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
}

// A two-node cluster cannot evict anyone (majority of 2 is 2): when node 1
// goes silent, node 0 parks instead of declaring itself the cluster. The
// app-level retry loop pumps frames until the plan revives node 1, at
// which point the parked write lands and reads back exactly. Zero
// evictions across the entire episode.
TEST(RecoverySim, TwoNodeParkAndResumeAfterRevive) {
  SimOptions opts = SelfHealingSimOptions();
  opts.num_processors = 2;
  opts.rpc_deadline_ms = 5;
  opts.fault_plan.kills.push_back({1, 150, 250});

  SimRuntime rt(opts);
  rt.registry().Register("main", [](Task& t) {
    auto addr = t.AllocOnNode(8, 1);
    ASSERT_TRUE(addr.ok());
    // A steady stream of writes; the frames they generate are what carries
    // the injector's counter across the kill threshold mid-stream. Once
    // node 1 goes dark every write fails (parked cluster: nobody may evict)
    // and the application-level retries keep pumping frames until the plan
    // revives it — at which point the stream resumes and completes.
    // Deterministic, so the retry bound is exact across runs.
    bool all_ok = true;
    for (std::int64_t i = 1; i <= 80; ++i) {
      Status s = Status::Ok();
      for (int attempt = 0; attempt < 500; ++attempt) {
        s = t.Write(*addr, &i, sizeof(i));
        if (s.ok()) break;
      }
      if (!s.ok()) {
        all_ok = false;
        break;
      }
    }
    std::int64_t got = 0;
    if (all_ok) got = t.ReadValue<std::int64_t>(*addr);
    ByteWriter w;
    w.WriteI64(all_ok && got == 80 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  const SimReport a = rt.Run("main");
  const SimReport b = rt.Run("main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_GE(Get(a.node_stats[0], "recovery.quorum_parks"), 1u);
  EXPECT_EQ(SumCounter(a.node_stats, "recovery.evictions"), 0u);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
}

// Seeded chaos soak (the CI chaos-soak job runs this under ASan): each
// seed derives a two-phase fault schedule — isolate node 3 behind severs
// that later heal (evict → park → rejoin with state hand-back), then kill
// node 2, the data's home, with a later revive (promote → re-replicate →
// rejoin). Whatever the schedule, the sweep must land bit-for-bit on the
// serial answer — the in-task mismatch count IS the bit-for-bit check
// against the fault-free result — and at least one rejoin must complete.
TEST(RecoverySim, ChaosSoakMatchesFaultFreeBitForBit) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    Rng rng(seed);
    const std::int64_t heal = rng.NextInRange(250, 600);
    const std::int64_t kill_at = heal + rng.NextInRange(400, 800);
    const std::int64_t revive = kill_at + rng.NextInRange(300, 600);

    SimOptions opts = SelfHealingSimOptions();
    opts.fault_plan.seed = seed;
    for (NodeId n = 0; n < 3; ++n) {
      opts.fault_plan.severs.push_back({3, n, 0, heal});
    }
    opts.fault_plan.kills.push_back(
        {2, static_cast<std::uint64_t>(kill_at), revive});

    SimRuntime rt(opts);
    RegisterGaussHomedOn(rt.registry(), 2, {0, 1, 0});

    const SimReport a = rt.Run("gs_main");
    EXPECT_EQ(ResultI64(a.main_result), 0)
        << "seed " << seed << ": heal=" << heal << " kill=" << kill_at
        << " revive=" << revive;
    EXPECT_GE(SumCounter(a.node_stats, "recovery.rejoins"), 1u)
        << "seed " << seed;

    // Determinism under chaos: the same seed replays identically.
    const SimReport b = rt.Run("gs_main");
    EXPECT_EQ(a.main_result, b.main_result) << "seed " << seed;
    EXPECT_EQ(a.node_stats, b.node_stats) << "seed " << seed;
    EXPECT_EQ(a.messages, b.messages) << "seed " << seed;
  }
}

// --- Message faults on the membership verbs ---------------------------------

// The simulator's membership runs on real Heartbeat, EvictReq and
// NodeJoinReq frames, so the injector's message faults reach it like any
// other traffic. Each recovery case above runs again with frames dropped or
// duplicated on top of its own schedule: the sweep must still land exactly
// (every acked write survived), every member still standing must end on the
// cluster's newest epoch, and two runs must replay bit-for-bit.
struct SimRecoveryCase {
  const char* name;
  SimOptions (*options)();
  void (*program)(TaskRegistry&);
  std::vector<NodeId> standing;  // members at the end of the run
};
void PrintTo(const SimRecoveryCase& v, std::ostream* os) { *os << v.name; }
const SimRecoveryCase kSimRecoveryCases[] = {
    {"DataHomeKilled", DataHomeKilledSimOptions, RegisterGaussOnDoomed,
     {0, 1, 2}},
    {"TwoSequentialDeaths", TwoSequentialDeathsSimOptions,
     [](TaskRegistry& r) { RegisterGaussHomedOn(r, 2, {0, 1, 0}); },
     {0, 1}},
    {"SeveredMinority", SeveredMinoritySimOptions,
     [](TaskRegistry& r) { RegisterGaussHomedOn(r, 1, {0, 1, 2}); },
     {0, 1, 2}},
};

class RecoverySimMessageFaults
    : public testing::TestWithParam<
          std::tuple<SimRecoveryCase, MessageFaults>> {};

TEST_P(RecoverySimMessageFaults, AckedWritesSurviveAndReplay) {
  const auto& [c, faults] = GetParam();
  SimOptions opts = c.options();
  faults.ApplyTo(&opts);
  SimRuntime rt(opts);
  c.program(rt.registry());

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_GE(Get(a.fault_counters, faults.counter), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  const std::uint64_t newest = NewestEpoch(a);
  EXPECT_GE(newest, 1u);
  for (const NodeId n : c.standing) {
    EXPECT_EQ(Get(a.node_stats[static_cast<size_t>(n)], "recovery.epoch"),
              newest)
        << "node " << n;
  }

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

INSTANTIATE_TEST_SUITE_P(
    MessageFaults, RecoverySimMessageFaults,
    testing::Combine(testing::ValuesIn(kSimRecoveryCases),
                     testing::ValuesIn(kMessageFaults)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             std::get<1>(info.param).name;
    });

// --- Serving front door under faults ----------------------------------------

// A worker dies while the cluster is saturated: every node — including the
// doomed one — holds live gang members and more jobs sit queued behind
// them. The scheduler must re-place the orphaned members on the survivors
// (gangs atomically), drain the queue onto the shrunken cluster, and end
// with a balanced ledger: every admitted job completed, none failed (all
// members are idempotent), zero invariant violations.
TEST(RecoveryThreaded, SchedulerRedrivesJobsOffKilledWorker) {
  ThreadedOptions o = RecoveryThreadedOptions(kNeverFires);
  o.sched.enabled = true;
  o.sched.slots_per_node = 2;  // cluster capacity 8, then 6 after the kill
  o.sched.tenant_quota = 8;
  o.sched.queue_cap = 64;
  ThreadedRuntime rt(o);

  std::atomic<bool> killed{false};

  // Every member parks until the kill has fired: members running on the
  // doomed node can therefore never report done (their JobDoneReq is
  // dropped with the node), while their restarted copies — and everything
  // queued — complete immediately afterwards.
  rt.registry().RegisterIdempotent("hold_job", [&killed](Task&) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!killed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  rt.registry().Register("main", [](Task& t) {
    // 10 jobs, 12 members (two are 2-member gangs): fills all 8 slots and
    // queues the rest.
    int submit_ok = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint32_t gang = (i == 2 || i == 7) ? 2 : 1;
      auto id = t.SubmitJob(static_cast<std::uint32_t>(i % 2), "hold_job",
                            {}, gang);
      if (id.ok()) ++submit_ok;
    }
    // Drain: poll the ledger until every admitted job resolved, however
    // long the eviction and the re-placements take.
    bool drained = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!drained && std::chrono::steady_clock::now() < deadline) {
      auto stat = t.SchedStat();
      if (stat.ok()) {
        const auto admitted = (*stat)["sched.admitted"];
        const auto resolved =
            (*stat)["sched.completed"] + (*stat)["sched.failed"];
        drained = admitted > 0 && admitted == resolved;
      }
      if (!drained) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ByteWriter w;
    w.WriteI64(drained && submit_ok == 10 ? 0 : 1);
    t.SetResult(w.TakeBuffer());
  });

  // Kill only once the cluster is saturated: with all 8 slots occupied the
  // doomed node is certainly hosting members mid-flight.
  std::thread watcher([&rt, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto stats = rt.ClusterStats();
      if (!stats.empty() && Get(stats[0], "sched.members_started") >= 8) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    rt.KillNode(kDoomed);
    killed.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("main")), 0);
  watcher.join();
  EXPECT_TRUE(rt.NodeKilled(kDoomed));

  const auto stats = rt.ClusterStats();
  // The doomed node held two members when it died; both were re-placed.
  EXPECT_GE(Get(stats[0], "sched.restarts"), 2u);
  EXPECT_EQ(Get(stats[0], "sched.failed"), 0u);
  EXPECT_EQ(Get(stats[0], "sched.admitted"), Get(stats[0], "sched.completed"));
  EXPECT_EQ(Get(stats[0], "sched.invariant_violations"), 0u);
  EXPECT_GE(SumCounter(stats, "recovery.evictions"), 1u);
}

// The serving workload on the simulator with a mid-stream worker death and
// revival, plus link delays tuned to push some JobSubmitResps past the RPC
// deadline. The client retries the SAME req_id, so the at-most-once cache
// must replay the remembered admission instead of admitting a duplicate:
// exactly-once shows as workload.submit_ok == sched.admitted. The epoch
// fence (PR 5 membership semantics) is live throughout — the eviction and
// the rejoin each bump the epoch under replication, and submits from a
// lagging client bounce and retry rather than landing on a stale view.
// After the rejoin, an 8-member gang — exactly the full cluster's slot
// capacity — proves the scheduler serves the returned node again: the gang
// cannot even be admitted against the shrunken 3-node capacity.
// Deterministic, so the whole episode replays bit-for-bit.
//
// The driver is bespoke (not "sched.serving_main") for one load-bearing
// reason: under link delays a one-way JobDoneReq can sit in a delay queue
// of a link that has gone quiet, and nothing retries a one-way. The drain
// therefore PUMPS every wire link — one remote read per non-scheduler node
// per poll — so held frames age out and the ledger can balance.
TEST(RecoverySim, SchedulerServingSurvivesKillExactlyOnce) {
  SimOptions opts = SelfHealingSimOptions();
  opts.sched.enabled = true;
  opts.sched.slots_per_node = 2;
  opts.sched.tenant_quota = 8;
  opts.sched.queue_cap = 64;
  opts.fault_plan.kills.push_back({3, 400, 2200});
  opts.fault_plan.delay_p = 0.05;
  opts.fault_plan.delay_frames = 60;
  SimRuntime rt(opts);
  sched::RegisterServingTasks(&rt.registry());

  // The post-rejoin acceptance job: argument-free so the test can submit
  // it directly, idempotent so an eviction could restart it.
  rt.registry().RegisterIdempotent("post_job",
                                   [](Task& t) { t.Compute(2000 * 20); });

  rt.registry().Register("serving_chaos_main", [](Task& t) {
    auto cfg_or = sched::DecodeServingConfig(t.arg());
    ASSERT_TRUE(cfg_or.ok());
    const sched::ServingConfig cfg = *cfg_or;

    // One word homed on every non-scheduler node: reading them each poll
    // pumps both directions of every wire link touching node 0.
    std::vector<std::uint64_t> words;
    for (NodeId n = 1; n < t.num_nodes(); ++n) {
      auto a = t.AllocOnNode(8, n);
      ASSERT_TRUE(a.ok());
      t.WriteValue<std::int64_t>(*a, 1);
      words.push_back(*a);
    }

    std::vector<Gpid> tenants;
    for (std::uint32_t i = 0; i < cfg.tenants; ++i) {
      std::vector<std::uint8_t> arg = sched::EncodeServingConfig(cfg);
      ByteWriter idw(4);
      idw.WriteU32(i);
      const std::vector<std::uint8_t> id_bytes = idw.TakeBuffer();
      arg.insert(arg.end(), id_bytes.begin(), id_bytes.end());
      auto gpid = t.Spawn("sched.tenant", std::move(arg),
                          static_cast<NodeId>(i % t.num_nodes()));
      ASSERT_TRUE(gpid.ok());
      tenants.push_back(*gpid);
    }
    std::uint64_t ok = 0, shed = 0, other = 0;
    for (const Gpid g : tenants) {
      auto res = t.Join(g);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ByteReader rr(res->data(), res->size());
      std::uint64_t v = 0;
      ASSERT_TRUE(rr.ReadU64(&v).ok());
      ok += v;
      ASSERT_TRUE(rr.ReadU64(&v).ok());
      shed += v;
      ASSERT_TRUE(rr.ReadU64(&v).ok());
      other += v;
    }

    const auto pump = [&t, &words] {
      for (const std::uint64_t a : words) {
        (void)t.ReadValue<std::int64_t>(a);
      }
      t.Compute(500 * 20);  // 500 us of virtual think time per poll
    };
    const auto balanced = [&t]() -> bool {
      auto s = t.SchedStat();
      if (!s.ok()) return false;
      return (*s)["sched.admitted"] ==
             (*s)["sched.completed"] + (*s)["sched.failed"];
    };

    bool drained = false;
    for (int poll = 0; poll < 20000 && !drained; ++poll) {
      drained = balanced();
      if (!drained) pump();
    }

    // The pump keeps frames flowing until the plan's revive threshold is
    // crossed and the node rejoins (ClusterStats legitimately errors while
    // the node is still down — keep pumping).
    bool rejoined = false;
    for (int poll = 0; poll < 20000 && !rejoined; ++poll) {
      auto stats = t.ClusterStats();
      if (stats.ok()) {
        std::uint64_t rejoins = 0;
        for (const auto& snap : *stats) {
          const auto it = snap.find("recovery.rejoins");
          if (it != snap.end()) rejoins += it->second;
        }
        rejoined = rejoins >= 1;
      }
      if (!rejoined) pump();
    }

    // Full-capacity gang: 8 members over 2 slots x 4 nodes fits only if
    // the scheduler counts the rejoined node alive again (against 3 nodes
    // it is rejected as never-fitting).
    std::uint64_t post_ok = 0;
    auto gang_id = t.SubmitJob(0, "post_job", {}, 8);
    if (gang_id.ok()) ++post_ok;
    bool post_drained = false;
    for (int poll = 0; poll < 20000 && !post_drained; ++poll) {
      post_drained = balanced();
      if (!post_drained) pump();
    }

    auto s = t.SchedStat();
    ASSERT_TRUE(s.ok());
    auto stat = *s;
    stat["workload.submit_ok"] = ok;
    stat["workload.submit_shed"] = shed;
    stat["workload.submit_other"] = other;
    stat["workload.drained"] = drained ? 1 : 0;
    stat["workload.rejoined"] = rejoined ? 1 : 0;
    stat["workload.post_gang_ok"] = post_ok;
    stat["workload.post_drained"] = post_drained ? 1 : 0;
    ByteWriter w(512);
    w.WriteU32(static_cast<std::uint32_t>(stat.size()));
    for (const auto& [name, value] : stat) {
      w.WriteString(name);
      w.WriteU64(value);
    }
    t.SetResult(w.TakeBuffer());
  });

  sched::ServingConfig cfg;
  cfg.threaded = false;
  cfg.tenants = 2;  // pinned to nodes 0 and 1 — never the doomed node
  cfg.jobs_per_tenant = 30;
  cfg.gap_us = 2500;
  cfg.service_us = 4000;
  cfg.gang = 2;
  cfg.gang_every = 4;
  cfg.seed = 7;
  const std::vector<std::uint8_t> arg = sched::EncodeServingConfig(cfg);

  const SimReport a = rt.Run("serving_chaos_main", arg);
  const SimReport b = rt.Run("serving_chaos_main", arg);

  auto decoded = sched::DecodeServingResult(a.main_result);
  ASSERT_TRUE(decoded.ok());
  const auto& m = *decoded;
  const auto v = [&m](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(v("workload.drained"), 1u);
  EXPECT_EQ(v("workload.rejoined"), 1u);
  EXPECT_EQ(v("workload.post_gang_ok"), 1u);
  EXPECT_EQ(v("workload.post_drained"), 1u);
  // Balanced ledger across the death: every admitted job resolved, and
  // none failed — orphaned idempotent members restart instead.
  EXPECT_EQ(v("sched.admitted"), v("sched.completed") + v("sched.failed"));
  EXPECT_EQ(v("sched.failed"), 0u);
  EXPECT_GE(v("sched.restarts"), 1u);
  EXPECT_EQ(v("sched.invariant_violations"), 0u);
  // Exactly-once admission: each successful submit is exactly one job
  // (the workload's 60 submits plus the post-rejoin gang).
  EXPECT_EQ(v("workload.submit_ok") + v("workload.post_gang_ok"),
            v("sched.admitted"));
  // The delays really exercised the retry/dedupe path.
  EXPECT_GE(SumCounter(a.node_stats, "rpc.dedupe.replays") +
                SumCounter(a.node_stats, "rpc.dedupe.drops"),
            1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.rejoins"), 1u);

  // Bit-for-bit replay of the full faulted serving episode.
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

}  // namespace
}  // namespace dse
