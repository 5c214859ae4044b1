// Routed multi-hop interconnect fabric.
//
// A third Medium implementation beside the shared bus and the ideal switch:
// messages traverse a Topology store-and-forward, one whole message per hop
// (message switching — the 1999-era testbeds the paper models never had
// wormhole NICs, and whole-message hops keep the event count linear in
// hops rather than flits). Each directed link runs a set of virtual-channel
// FIFOs with credit-based flow control: a message consumes one credit of the
// (link, vc) it is queued on when transmission starts and returns the credit
// of the link it *arrived* on at the same moment (it has vacated the
// upstream router's input buffer). Arbitration across a link's virtual
// channels is round-robin with a seeded starting offset, so every schedule
// is a pure function of (topology, workload, seed) and replays bit-for-bit.
//
// Deadlock avoidance: dimension-order routing on mesh/torus, up/down routing
// on the fat-tree, and a dateline virtual-channel class switch on ring/torus
// wraparound links (which is why those topologies require >= 2 VCs). After a
// link sever the routing tables are rebuilt along surviving minimal paths;
// the rebuilt routes are escape-path best-effort rather than provably
// deadlock-free (see docs/interconnect.md).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "simnet/ethernet.h"
#include "simnet/fabric/topology.h"

namespace dse::simnet::fabric {

struct FabricOptions {
  std::string topology = "auto";
  double link_bandwidth_bps = 0;  // 0 = inherit the profile's LAN bandwidth
  sim::SimTime link_latency = sim::Micros(1);    // wire flight time per hop
  sim::SimTime router_latency = sim::Micros(2);  // router pipeline per hop
  int vcs = 2;            // virtual channels per link (ring/torus need >= 2)
  int vc_buf_frames = 4;  // input-buffer depth (credits) per (link, vc)

  // Scheduled link faults, counted in fabric frames (Transmit calls), in the
  // spirit of the frame-count fault plans: deterministic under virtual time.
  struct LinkFault {
    int a = -1;
    int b = -1;
    std::uint64_t after = 0;
    std::int64_t heal = -1;  // fabric frame count; -1 = never heals
  };
  std::vector<LinkFault> link_faults;
};

class RoutedFabricMedium final : public Medium {
 public:
  // `params` supplies framing (overhead/MSS) and, unless overridden by
  // opts.link_bandwidth_bps, the per-link bandwidth. `topo` must have been
  // built for the same machine count the runtime maps endpoints onto.
  RoutedFabricMedium(sim::Simulator* sim, MediumParams params,
                     FabricOptions opts, Topology topo, std::uint64_t seed);
  ~RoutedFabricMedium() override;

  void Transmit(int src_node, int dst_node, std::uint64_t payload_bytes,
                DeliveryFn on_delivered) override;

  const MediumStats& stats() const override { return stats_; }
  const char* kind_name() const override { return "fabric"; }
  bool Reachable(int src, int dst) const override;
  std::map<std::string, std::uint64_t> ExtraCounters() const override;

  const Topology& topology() const { return topo_; }

  struct LinkUse {
    std::uint64_t frames = 0;
    sim::SimTime busy = 0;
  };
  const std::vector<LinkUse>& link_use() const { return link_use_; }

 private:
  struct Frame;
  struct VcState {
    std::deque<Frame*> q;
    int credits = 0;
  };
  struct LinkState {
    std::vector<VcState> vcs;
    sim::SimTime busy_until = 0;
    int rr = 0;  // arbitration pointer (seeded at construction)
  };

  int VcFor(const Link& l, const Frame& f) const;
  void Enqueue(int link_id, Frame* f);
  void TryStart(int link_id);
  void Arrive(Frame* f);
  void ReturnCredit(int link_id, int vc);
  void CheckFaults();
  void DrainDeadLink(int link_id);
  void Drop(Frame* f);

  sim::Simulator* sim_;
  MediumParams params_;
  FabricOptions opts_;
  Topology topo_;
  std::uint64_t seed_;
  MediumStats stats_;
  std::vector<LinkState> links_;
  std::vector<LinkUse> link_use_;
  std::vector<char> fault_fired_;
  std::vector<char> fault_healed_;
  std::uint64_t frames_seen_ = 0;
  std::uint64_t in_flight_ = 0;
};

}  // namespace dse::simnet::fabric
