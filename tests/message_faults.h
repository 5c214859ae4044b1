// Message faults as an extra input to simulator cases: each case runs again
// with the injector dropping or duplicating frames on top of its own
// schedule. The simulator's membership runs on real Heartbeat, EvictReq,
// DrainReq and NodeJoinReq frames, so those verbs are hit like any other
// traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "dse/sim_runtime.h"

namespace dse {

struct MessageFaults {
  const char* name;
  double drop_p;
  double dup_p;
  const char* counter;  // the injector tally that proves the faults fired

  void ApplyTo(SimOptions* opts) const {
    opts->fault_plan.drop_p = drop_p;
    opts->fault_plan.dup_p = dup_p;
  }
};
inline void PrintTo(const MessageFaults& v, std::ostream* os) { *os << v.name; }

inline constexpr MessageFaults kMessageFaults[] = {
    {"Drop", 0.02, 0, "fault.injected.drop"},
    {"Dup", 0, 0.05, "fault.injected.dup"},
};

// The newest membership epoch any node reached. Epochs only increase, so
// this is the cluster's; every member still standing must end on it.
inline std::uint64_t NewestEpoch(const SimReport& report) {
  std::uint64_t newest = 0;
  for (const MetricsSnapshot& snap : report.node_stats) {
    if (const auto it = snap.find("recovery.epoch"); it != snap.end()) {
      newest = std::max(newest, it->second);
    }
  }
  return newest;
}

}  // namespace dse
