// Zero-downtime maintenance suite (docs/recovery.md): planned drains and
// rolling restarts must be lossless BY CONSTRUCTION, not by failover replay.
//
// The contract under test, layer by layer:
//   * a graceful drain (DrainReq, via the ThreadedRuntime's DrainNode admin
//     verb or a fault-plan `drain N after M` directive) hands the node's GMM
//     homes to its backup over the epoch-fenced transfer machinery while the
//     node is STILL ALIVE and serving, then evicts it and lets PR 5's rejoin
//     path restore it — with recovery.promotions == 0, because nothing ever
//     failed over (the planned promotions count as recovery.drains instead),
//   * a node killed MID-drain falls back to the PR 4/5 failover path with no
//     acked-write loss — the drain is an optimization, never a new way to
//     lose data,
//   * on the simulator the whole cycle replays bit-identically, and the
//     rolling-restart driver (SimOptions::rolling) bounces every non-zero
//     node in sequence under live serving traffic with zero shed jobs and a
//     balanced ledger.
//
// Scheduling discipline matches recovery_test.cc: threaded kills and drains
// are condition-triggered by watcher threads (never wall-clock timed), the
// main task holds its final verification read behind a resume gate, and the
// liveness oracle keeps CPU starvation from manufacturing false evictions.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/status.h"
#include "dse/sched/serving.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "net/fault.h"
#include "platform/profile.h"

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

// --- The acceptance program -------------------------------------------------
// The red-black Gauss-Seidel sweep of recovery_test.cc with the array homed
// ON the node being drained, workers pinned to the other nodes: every read
// and write crosses to the maintenance target, so any window where the
// handoff drops or double-applies an acked write shows up as a bit
// mismatch against the serial answer.

constexpr int kCells = 26;
constexpr int kSweeps = 6;
constexpr int kWorkers = 3;
constexpr NodeId kDrained = 3;  // never node 0 (coordinator + scheduler)

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

// When `resume_gate` is non-null (threaded only — it spins on the wall
// clock) the main task waits for the test body to set it before the final
// verification read, guaranteeing that read happens after the staged
// drain/kill sequence ran to completion.
void RegisterGaussOnDrained(TaskRegistry& registry,
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

  registry.Register("gs_main", [resume_gate](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, kDrained);
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
      // Workers pinned to the survivors 0..2: a resident worker would
      // defer the cutover until it exits (see the regression test below),
      // and these tests need the drain to land MID-sweep.
      auto gpid = t.Spawn("gs_worker", arg.TakeBuffer(), w);
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
      EXPECT_TRUE(resume_gate->load()) << "staged maintenance never finished";
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

// A frame count no run ever reaches: keeps the injector installed (KillNode
// needs one, and the prober stays active) while guaranteeing the scheduled
// kill never fires — the test body drives the drain/kill itself.
constexpr std::uint64_t kNeverFires = ~0ull;

ThreadedOptions DrainThreadedOptions() {
  ThreadedOptions o;
  o.num_nodes = 4;
  o.fault_plan.seed = 21;
  o.fault_plan.kills.push_back({kDrained, kNeverFires});
  o.rpc_deadline_ms = 60;
  o.rpc_max_attempts = 10;
  o.rpc_backoff_base_ms = 1;
  o.heartbeat.period_ms = 20;   // the coordinator's tick drives the cutover
  o.heartbeat.timeout_ms = 400;  // oracle-guarded (see recovery_test.cc)
  o.replication = 1;
  return o;
}

// --- Threaded runtime -------------------------------------------------------

// The headline contract: drain the node homing the data mid-run. The homes
// are handed to the backup while the source still serves (forwarded writes
// land on both sides of the copy), the planned eviction is lossless, the
// node rejoins, and the answer is bit-exact — with ZERO failover
// promotions: the drained path's promotions are typed recovery.drains.
TEST(DrainThreaded, GracefulDrainIsLosslessWithZeroPromotions) {
  ThreadedRuntime rt(DrainThreadedOptions());
  std::atomic<bool> done{false};
  RegisterGaussOnDrained(rt.registry(), &done);

  std::thread watcher([&rt, &done] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(35);
    // Drain only once acked writes are provably flowing through the target
    // (ITS forward counter, not just anyone's — the handoff must race live
    // replicated state).
    while (std::chrono::steady_clock::now() < deadline &&
           Get(rt.ClusterStats()[kDrained], "gmm.repl.forwards") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    rt.DrainNode(kDrained);
    // The cycle is complete when the coordinator counts the rejoin.
    while (std::chrono::steady_clock::now() < deadline &&
           SumCounter(rt.ClusterStats(), "recovery.rejoins") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);
  watcher.join();

  EXPECT_FALSE(rt.NodeKilled(kDrained));  // nothing ever died
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.drains"), 1u);
  EXPECT_EQ(SumCounter(stats, "recovery.promotions"), 0u);
  EXPECT_GE(SumCounter(stats, "recovery.handoff.chunks"), 1u);
  EXPECT_GE(SumCounter(stats, "recovery.handoff.bytes"),
            SumCounter(stats, "recovery.handoff.chunks"));
  EXPECT_GE(SumCounter(stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(stats, "recovery.rejoins"), 1u);
}

// The declarative spelling: `drain 3 after 300` in the fault plan. The
// injector trips the directive off its frame count (pumped by the
// workload's own traffic), the coordinator's prober notices and runs the
// same admin path, and the injector's ledger records it.
TEST(DrainThreaded, FaultPlanDrainDirectiveRunsTheFullCycle) {
  ThreadedOptions o = DrainThreadedOptions();
  o.fault_plan.drains.push_back({kDrained, 300});
  ThreadedRuntime rt(o);
  std::atomic<bool> done{false};
  RegisterGaussOnDrained(rt.registry(), &done);

  std::thread watcher([&rt, &done] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(35);
    while (std::chrono::steady_clock::now() < deadline &&
           SumCounter(rt.ClusterStats(), "recovery.rejoins") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);
  watcher.join();

  EXPECT_EQ(Get(rt.FaultCounters(), "fault.drained_nodes"), 1u);
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.drains"), 1u);
  EXPECT_EQ(SumCounter(stats, "recovery.promotions"), 0u);
  EXPECT_GE(SumCounter(stats, "recovery.rejoins"), 1u);
}

// Chaos interaction: the node dies WHILE draining. The planned handoff is
// abandoned wherever it stood and the PR 4/5 failover path takes over —
// the backup still holds every acked write (replication never paused
// during the drain), so the answer stays bit-exact. A drain must never
// open a loss window that a plain kill would not have had.
TEST(DrainThreaded, KilledMidDrainFallsBackToFailoverLosslessly) {
  ThreadedRuntime rt(DrainThreadedOptions());
  std::atomic<bool> done{false};
  RegisterGaussOnDrained(rt.registry(), &done);

  std::thread watcher([&rt, &done] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(35);
    // Wait for the DRAINED NODE's own first replication forward (not just
    // anyone's): the kill must land with real state of node 3 in flight.
    while (std::chrono::steady_clock::now() < deadline &&
           Get(rt.ClusterStats()[kDrained], "gmm.repl.forwards") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    rt.DrainNode(kDrained);
    // Kill as soon as the membership marks the node draining — squarely
    // inside the handoff window.
    while (std::chrono::steady_clock::now() < deadline &&
           !rt.NodeDraining(kDrained)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rt.KillNode(kDrained);
    while (std::chrono::steady_clock::now() < deadline &&
           SumCounter(rt.ClusterStats(), "recovery.evictions") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.store(true);
  });

  EXPECT_EQ(ResultI64(rt.RunMain("gs_main")), 0);
  watcher.join();

  EXPECT_TRUE(rt.NodeKilled(kDrained));
  const auto stats = rt.ClusterStats();
  EXPECT_GE(SumCounter(stats, "recovery.evictions"), 1u);
  // Depending on where the kill lands the homes arrive via the planned
  // handoff (drains) or failover (promotions) — but always via exactly one
  // of the two typed paths.
  EXPECT_GE(SumCounter(stats, "recovery.drains") +
                SumCounter(stats, "recovery.promotions"),
            1u);
}

// --- Simulated runtime ------------------------------------------------------

SimOptions DrainSimOptions() {
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

// Planned drain on the simulator: the full cycle — handoff, typed cutover,
// rejoin, hand-back — lands inside the workload and replays bit-identically
// (makespan, message count, every per-node counter, the injector's ledger).
TEST(DrainSim, PlannedDrainIsLosslessAndReplaysBitIdentically) {
  SimOptions opts = DrainSimOptions();
  opts.fault_plan.drains.push_back({kDrained, 300});
  SimRuntime rt(opts);
  RegisterGaussOnDrained(rt.registry());

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.fault_counters, "fault.drained_nodes"), 1u);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 0u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.drains"), 1u);
  EXPECT_EQ(SumCounter(a.node_stats, "recovery.promotions"), 0u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.handoff.chunks"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_frames, b.wire_frames);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

// Mid-drain kill on the simulator: `drain 3 after 250` + `kill 3 at 400`
// (the spelling dse_run's validator permits — a crash AFTER the drain
// started models exactly this). Whatever point the handoff reached, the
// survivors converge, the answer is exact, and the interleaving replays
// bit-identically.
TEST(DrainSim, KilledMidDrainFailsOverAndReplaysBitIdentically) {
  SimOptions opts = DrainSimOptions();
  opts.fault_plan.drains.push_back({kDrained, 250});
  opts.fault_plan.kills.push_back({kDrained, 400});
  SimRuntime rt(opts);
  RegisterGaussOnDrained(rt.registry());

  const SimReport a = rt.Run("gs_main");
  const SimReport b = rt.Run("gs_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.fault_counters, "fault.drained_nodes"), 1u);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.evictions"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.drains") +
                SumCounter(a.node_stats, "recovery.promotions"),
            1u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

// Regression: drain a node that HOSTS a live resident task. The cutover
// must defer until the task exits — a drain drops no frames, so cutting
// over under a live task would zombify it and its completion would later
// hit a process table that no longer knows it (this aborted the kernel
// before the resident-task gate in TickTransfers). The drain still
// completes once the worker finishes, with zero promotions, and the run
// replays bit-identically.
TEST(DrainSim, DrainOfTaskHostingNodeDefersCutoverUntilTaskExits) {
  SimOptions opts = DrainSimOptions();
  // Early enough that the worker is mid-sweep when the directive fires.
  opts.fault_plan.drains.push_back({kDrained, 60});
  SimRuntime rt(opts);

  rt.registry().Register("res_worker", [](Task& t) {
    ByteReader r(t.arg().data(), t.arg().size());
    std::uint64_t addr = 0;
    ASSERT_TRUE(r.ReadU64(&addr).ok());
    std::vector<double> x(kCells);
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        t.ReadArray(addr, x.data(), x.size());
        for (int i = 1; i < kCells - 1; ++i) {
          if (i % 2 != color) continue;
          const double v = 0.5 * (x[static_cast<size_t>(i - 1)] +
                                  x[static_cast<size_t>(i + 1)]);
          t.WriteValue(addr + static_cast<std::uint64_t>(i) * 8, v);
        }
      }
    }
  });
  rt.registry().Register("res_main", [](Task& t) {
    auto addr = t.AllocOnNode(kCells * 8, kDrained);
    ASSERT_TRUE(addr.ok());
    std::vector<double> init(kCells, 0.0);
    init[0] = 1.0;
    init[kCells - 1] = 2.0;
    t.WriteArray(*addr, init.data(), init.size());
    // The worker lives ON the draining node — exactly what dse_run's
    // bundled apps do (one worker per node).
    ByteWriter warg;
    warg.WriteU64(*addr);
    auto gpid = t.Spawn("res_worker", warg.TakeBuffer(), kDrained);
    ASSERT_TRUE(gpid.ok());
    ASSERT_TRUE(t.Join(*gpid).ok());
    // The worker is gone; now the deferred cutover may proceed. Hold the
    // final verification read until the full cycle (eviction + rejoin)
    // lands, bounded so a wedged drain fails loudly instead of hanging.
    for (int poll = 0; poll < 200000; ++poll) {
      auto s = t.ClusterStats();
      if (s.ok() && SumCounter(*s, "recovery.rejoins") >= 1) break;
      t.Compute(500);
    }
    std::vector<double> got(kCells);
    t.ReadArray(*addr, got.data(), got.size());
    const std::vector<double> want = SerialGaussSeidel();
    std::int64_t mismatches = 0;
    for (int i = 0; i < kCells; ++i) {
      if (std::memcmp(&got[static_cast<size_t>(i)],
                      &want[static_cast<size_t>(i)], 8) != 0) {
        ++mismatches;
      }
    }
    ByteWriter w;
    w.WriteI64(mismatches);
    t.SetResult(w.TakeBuffer());
  });

  const SimReport a = rt.Run("res_main");
  const SimReport b = rt.Run("res_main");

  EXPECT_EQ(ResultI64(a.main_result), 0);
  EXPECT_EQ(Get(a.fault_counters, "fault.drained_nodes"), 1u);
  EXPECT_EQ(Get(a.fault_counters, "fault.killed_nodes"), 0u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.drains"), 1u);
  EXPECT_GE(SumCounter(a.node_stats, "recovery.rejoins"), 1u);
  EXPECT_EQ(SumCounter(a.node_stats, "recovery.promotions"), 0u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

// The tentpole end to end: a rolling restart of every non-zero node under
// live multi-tenant serving traffic. Nodes 1, 2, 3 are each drained,
// evicted, and rejoined in sequence while two open-loop tenants keep
// submitting; the final ledger must balance with zero shed submissions,
// zero failed jobs, and zero failover promotions — zero downtime, by the
// numbers. And the whole maintenance schedule replays bit-identically.
TEST(DrainSim, RollingRestartUnderLiveServingTrafficShedsNothing) {
  SimOptions opts;
  opts.profile = platform::SunOsSparc();
  opts.num_processors = 4;
  opts.replication = 1;
  opts.rolling = true;
  opts.sched.enabled = true;
  opts.sched.slots_per_node = 4;
  opts.sched.tenant_quota = 16;
  opts.sched.queue_cap = 32;
  SimRuntime rt(opts);
  sched::RegisterServingTasks(&rt.registry());

  sched::ServingConfig cfg;
  cfg.threaded = false;
  cfg.tenants = 2;
  cfg.jobs_per_tenant = 80;
  cfg.gap_us = 2500;
  cfg.service_us = 1500;
  cfg.gang = 2;
  cfg.gang_every = 5;
  cfg.seed = 3;
  // Long-lived generators live on the undrainable node 0: a drain hands
  // off GMM homes and waits out scheduler jobs, not resident user tasks.
  cfg.pin_tenants = true;
  const std::vector<std::uint8_t> arg = sched::EncodeServingConfig(cfg);

  const SimReport a = rt.Run("sched.serving_main", arg);
  const SimReport b = rt.Run("sched.serving_main", arg);

  auto ledger = sched::DecodeServingResult(a.main_result);
  ASSERT_TRUE(ledger.ok());
  const auto& stat = *ledger;
  const auto L = [&stat](const char* name) {
    const auto it = stat.find(name);
    return it == stat.end() ? 0ull : it->second;
  };
  // Zero downtime, by the numbers: every offered job was admitted, every
  // admitted job completed, nothing was shed and nothing failed — across
  // three evictions.
  EXPECT_EQ(L("workload.submit_ok"), 2ull * cfg.jobs_per_tenant);
  EXPECT_EQ(L("workload.submit_shed"), 0u);
  EXPECT_EQ(L("workload.submit_other"), 0u);
  EXPECT_EQ(L("sched.admitted"), L("sched.submitted"));
  EXPECT_EQ(L("sched.completed"), L("sched.admitted"));
  EXPECT_EQ(L("sched.failed"), 0u);
  EXPECT_EQ(L("sched.shed"), 0u);

  const auto& stats = a.node_stats;
  // All three non-zero nodes went through the full cycle...
  EXPECT_GE(SumCounter(stats, "recovery.drains"), 3u);
  EXPECT_GE(SumCounter(stats, "recovery.evictions"), 3u);
  EXPECT_GE(SumCounter(stats, "recovery.rejoins"), 3u);
  EXPECT_GE(SumCounter(stats, "recovery.handoff.chunks"), 1u);
  // ...and none of it was failover.
  EXPECT_EQ(SumCounter(stats, "recovery.promotions"), 0u);

  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.main_result, b.main_result);
  EXPECT_EQ(a.node_stats, b.node_stats);
}

}  // namespace
}  // namespace dse
