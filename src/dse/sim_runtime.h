// The simulated DSE runtime: the same kernels, protocol and application code
// as ThreadedRuntime, executed under a discrete-event simulator with virtual
// time charged from a platform cost model (src/platform) and a simulated
// shared-Ethernet interconnect (src/simnet).
//
// This backend substitutes for the paper's three hardware testbeds: it
// reproduces the *mechanisms* the paper measures — user-level message
// overheads, bus contention, computation/communication granularity, and the
// "virtual cluster" oversubscription past 6 physical machines — so the
// evaluation figures regenerate by shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/kernel_core.h"
#include "dse/registry.h"
#include "dse/task.h"
#include "dse/trace.h"
#include "net/fault.h"
#include "platform/profile.h"
#include "simnet/fabric/fabric.h"

namespace dse {

enum class OrganizationMode {
  // The paper's contribution: DSE kernel linked into the application as a
  // parallel processing library (one UNIX process).
  kUnifiedLibrary,
  // The older DSE organization: kernel and application in separate UNIX
  // processes; every kernel interaction pays a local IPC hop + context
  // switches each way.
  kLegacyTwoProcess,
};

enum class MediumKind { kSharedBus, kSwitched, kRoutedFabric };

// On the simulator every time in the shared knobs is virtual time, and a
// batched envelope is charged ONE per-message protocol overhead plus the
// summed payload's byte cost — exactly why aggregation wins on the paper's
// shared bus. With replication and a fault plan (or `rolling`), every node
// runs the threaded runtime's membership protocol (recovery::Membership) on
// virtual time at the default heartbeat period: its Heartbeat, EvictReq,
// DrainReq and NodeJoinReq frames cross the fault injector and the medium,
// and count toward the plan's frame thresholds. Scheduler timestamps come
// from virtual time, so a serving schedule replays bit for bit.
struct SimOptions : ClusterOptions {
  platform::Profile profile;
  // Heterogeneous cluster (optional): one profile per physical machine.
  // When non-empty it overrides `profile.physical_machines` (the machine
  // count becomes machine_profiles.size()) and each machine charges compute
  // and software-path costs from its own profile; the shared LAN keeps
  // `profile.net`. Empty = the homogeneous labs of the paper.
  std::vector<platform::Profile> machine_profiles;
  int num_processors = 4;  // DSE kernels in the (virtual) cluster
  OrganizationMode organization = OrganizationMode::kUnifiedLibrary;
  MediumKind medium = MediumKind::kSharedBus;
  // Routed-fabric configuration, used only under MediumKind::kRoutedFabric.
  // The topology spans MachineCount() NICs; per-link bandwidth inherits
  // profile.net.bandwidth_bps unless overridden. Any fault_plan.fabric_links
  // entries are handed to the medium (frame-count link severs/heals that
  // reroute or partition traffic and drive the membership layer).
  simnet::fabric::FabricOptions fabric;
  std::uint64_t seed = 1;
  // Deterministic fault injection on the simulated interconnect
  // (net/fault.h). Off unless the plan enables at least one fault. With a
  // plan active, data-plane calls bound their waits with the rpc knobs (in
  // *virtual* time) and retry; without one the simulation is lossless and
  // calls wait unbounded, exactly as before.
  net::FaultPlan fault_plan = {};
  // Rolling-restart maintenance driver (docs/recovery.md): drain, restart
  // and rejoin every node except node 0 in sequence while the main task
  // (typically a serving loop) keeps running. Exactly one node is ever out
  // of the serving set at a time. Requires replication = 1 and rejoin.
  bool rolling = false;
  // Optional execution tracing (not owned; may be null). Events carry
  // virtual timestamps; see dse/trace.h for export formats.
  trace::Recorder* trace = nullptr;
};

struct SimReport {
  double virtual_seconds = 0;  // main-task makespan in simulated time
  std::vector<std::uint8_t> main_result;
  std::vector<std::string> console;

  std::uint64_t messages = 0;      // kernel messages sent (incl. loopback)
  std::uint64_t loopback = 0;      // ... of which never touched the wire
  std::uint64_t wire_frames = 0;   // Ethernet frames
  std::uint64_t wire_bytes = 0;
  std::uint64_t collisions = 0;
  double bus_utilization = 0;      // busy time / makespan

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t invalidations = 0;

  // SSI introspection, captured as the simulation quiesces: one counter
  // snapshot per node (index == NodeId), the global process listing, and the
  // medium's counters (cluster-wide — the bus has no owning node).
  std::vector<MetricsSnapshot> node_stats;
  std::vector<proto::PsEntry> ps;
  MetricsSnapshot medium_counters;
  std::map<std::string, RunningStats> histograms;  // merged across nodes
  // Injected-fault tallies (empty when no fault plan was active).
  MetricsSnapshot fault_counters;
};

class SimRuntime {
 public:
  explicit SimRuntime(SimOptions options);

  TaskRegistry& registry() { return registry_; }
  const SimOptions& options() const { return options_; }

  // Number of DSE kernels sharing the machine that hosts `node`.
  int KernelsOnMachineOf(NodeId node) const;

  // Runs `main_name` as the main DSE process on node 0 until the whole
  // cluster quiesces; deterministic for a fixed (options, arg). Callable
  // repeatedly; each call is an independent simulation.
  SimReport Run(const std::string& main_name,
                std::vector<std::uint8_t> arg = {});

  // SSI introspection views of the most recent Run (same data as the
  // report; mirrors ThreadedRuntime's accessors).
  const std::vector<MetricsSnapshot>& ClusterStats() const {
    return last_node_stats_;
  }
  const std::vector<proto::PsEntry>& Ps() const { return last_ps_; }
  const MetricsSnapshot& MediumCounters() const {
    return last_medium_counters_;
  }

 private:
  SimOptions options_;
  TaskRegistry registry_;

  std::vector<MetricsSnapshot> last_node_stats_;
  std::vector<proto::PsEntry> last_ps_;
  MetricsSnapshot last_medium_counters_;
};

}  // namespace dse
