#include "simnet/fabric/fabric.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace dse::simnet::fabric {

// One message in flight. Frames are owned by whichever queue or scheduled
// arrival event currently holds the pointer; every path ends in delivery
// (delete in Arrive) or Drop.
struct RoutedFabricMedium::Frame {
  int dst = -1;  // destination machine
  std::uint64_t payload_bytes = 0;
  DeliveryFn on_delivered;
  sim::SimTime enqueue_time = 0;
  std::uint64_t flow = 0;  // per-(src,dst) lane selector
  int cur_dim = -1;        // dimension of the last router link traversed
  int cls = 0;             // dateline VC class (0 before, 1 after wraparound)
  int prev_link = -1;      // link whose downstream buffer the frame occupies
  int prev_vc = 0;
};

RoutedFabricMedium::RoutedFabricMedium(sim::Simulator* sim,
                                       MediumParams params, FabricOptions opts,
                                       Topology topo, std::uint64_t seed)
    : sim_(sim),
      params_(params),
      opts_(std::move(opts)),
      topo_(std::move(topo)),
      seed_(seed) {
  if (opts_.link_bandwidth_bps > 0)
    params_.bandwidth_bps = opts_.link_bandwidth_bps;
  DSE_CHECK_MSG(opts_.vcs >= 1 && opts_.vc_buf_frames >= 1,
                "fabric needs >= 1 VC and >= 1 buffer slot");
  DSE_CHECK_MSG(!topo_.NeedsDateline() || opts_.vcs >= 2,
                "ring/torus fabrics need >= 2 virtual channels (dateline "
                "deadlock avoidance)");
  for (const auto& lf : opts_.link_faults) {
    DSE_CHECK_MSG(lf.a >= 0 && lf.b >= 0 && lf.a < topo_.routers() &&
                      lf.b < topo_.routers() && lf.a != lf.b,
                  "fabric link fault references a router outside the "
                  "topology");
    // A typo must not silently run fault-free (docs/fault_model.md): the
    // named router pair has to be an actual link of this topology.
    DSE_CHECK_MSG(topo_.HasRouterLink(lf.a, lf.b),
                  "fabric link fault references a router pair with no link "
                  "in the topology");
  }
  links_.resize(topo_.links().size());
  link_use_.resize(topo_.links().size());
  Rng arb(seed_ ^ 0xFAB51CULL);
  for (size_t i = 0; i < links_.size(); ++i) {
    links_[i].vcs.assign(static_cast<size_t>(opts_.vcs), VcState{});
    for (auto& vc : links_[i].vcs) vc.credits = opts_.vc_buf_frames;
    links_[i].rr =
        static_cast<int>(arb.NextBelow(static_cast<std::uint64_t>(opts_.vcs)));
  }
  fault_fired_.assign(opts_.link_faults.size(), 0);
  fault_healed_.assign(opts_.link_faults.size(), 0);
}

RoutedFabricMedium::~RoutedFabricMedium() {
  for (auto& ls : links_)
    for (auto& vc : ls.vcs)
      for (Frame* f : vc.q) delete f;
}

bool RoutedFabricMedium::Reachable(int src, int dst) const {
  return topo_.Reachable(src, dst);
}

int RoutedFabricMedium::VcFor(const Link& l, const Frame& f) const {
  const int nvcs = opts_.vcs;
  if (l.dim >= 0 && topo_.NeedsDateline()) {
    const int lanes = nvcs / 2;
    const int cls = l.dim == f.cur_dim ? f.cls : 0;
    return cls * lanes + static_cast<int>(f.flow % lanes);
  }
  return static_cast<int>(f.flow % nvcs);
}

void RoutedFabricMedium::Transmit(int src_node, int dst_node,
                                  std::uint64_t payload_bytes,
                                  DeliveryFn on_delivered) {
  CheckFaults();
  ++frames_seen_;
  ++stats_.frames;
  const std::uint64_t frags = FragmentCount(params_, payload_bytes);
  stats_.fragments += frags;
  stats_.payload_bytes += payload_bytes;
  stats_.wire_bytes +=
      payload_bytes +
      frags * static_cast<std::uint64_t>(params_.frame_overhead_bytes);

  if (src_node == dst_node) {  // same machine: loopback, one wire flight
    sim_->At(sim_->Now() + opts_.link_latency, std::move(on_delivered));
    return;
  }
  const int hops = topo_.HopCount(src_node, dst_node);
  if (hops < 0) {
    ++stats_.unroutable_drops;  // lost on the floor; retries ride above us
    return;
  }
  stats_.hops += static_cast<std::uint64_t>(hops);

  Frame* f = new Frame;
  f->dst = dst_node;
  f->payload_bytes = payload_bytes;
  f->on_delivered = std::move(on_delivered);
  f->flow = Rng(seed_ ^ (static_cast<std::uint64_t>(src_node) << 20) ^
                static_cast<std::uint64_t>(dst_node))
                .NextU64();
  ++in_flight_;
  Enqueue(topo_.NextLink(topo_.NicVertex(src_node), dst_node), f);
}

void RoutedFabricMedium::Enqueue(int link_id, Frame* f) {
  const Link& l = topo_.links()[static_cast<size_t>(link_id)];
  const int vc = VcFor(l, *f);
  f->enqueue_time = sim_->Now();
  links_[static_cast<size_t>(link_id)].vcs[static_cast<size_t>(vc)].q.push_back(
      f);
  TryStart(link_id);
}

void RoutedFabricMedium::TryStart(int link_id) {
  LinkState& ls = links_[static_cast<size_t>(link_id)];
  if (topo_.LinkDead(link_id)) return;
  const sim::SimTime now = sim_->Now();
  // While busy, the end-of-transmission event below re-arbitrates.
  if (now < ls.busy_until) return;

  const int nvcs = opts_.vcs;
  int chosen = -1;
  bool credit_blocked = false;
  for (int i = 0; i < nvcs; ++i) {
    const int v = (ls.rr + i) % nvcs;
    VcState& vc = ls.vcs[static_cast<size_t>(v)];
    if (vc.q.empty()) continue;
    if (vc.credits == 0) {
      credit_blocked = true;  // head-of-line frame waiting on a credit
      continue;
    }
    chosen = v;
    break;
  }
  if (chosen < 0) {
    if (credit_blocked) ++stats_.credit_stalls;
    return;
  }
  ls.rr = (chosen + 1) % nvcs;
  VcState& vc = ls.vcs[static_cast<size_t>(chosen)];
  Frame* f = vc.q.front();
  vc.q.pop_front();
  stats_.queueing_time += now - f->enqueue_time;
  --vc.credits;  // occupies the downstream input buffer on arrival
  if (f->prev_link >= 0) ReturnCredit(f->prev_link, f->prev_vc);
  f->prev_link = link_id;
  f->prev_vc = chosen;

  const sim::SimTime tx = WireTime(params_, f->payload_bytes);
  ls.busy_until = now + tx;
  stats_.busy_time += tx;
  LinkUse& use = link_use_[static_cast<size_t>(link_id)];
  ++use.frames;
  use.busy += tx;

  const Link& l = topo_.links()[static_cast<size_t>(link_id)];
  const sim::SimTime hop_latency =
      opts_.link_latency + (topo_.IsNic(l.to) ? 0 : opts_.router_latency);
  sim_->At(ls.busy_until, [this, link_id] { TryStart(link_id); });
  sim_->At(ls.busy_until + hop_latency, [this, f] { Arrive(f); });
}

void RoutedFabricMedium::Arrive(Frame* f) {
  const Link& l = topo_.links()[static_cast<size_t>(f->prev_link)];
  if (l.dim >= 0) {
    if (f->cur_dim != l.dim) {
      f->cur_dim = l.dim;
      f->cls = 0;
    }
    if (l.wrap) f->cls = 1;  // crossed the dateline of this dimension
  }
  const int vertex = l.to;
  if (topo_.IsNic(vertex)) {
    ReturnCredit(f->prev_link, f->prev_vc);
    DeliveryFn cb = std::move(f->on_delivered);
    delete f;
    --in_flight_;
    if (cb) cb();
    return;
  }
  const int next = topo_.NextLink(vertex, f->dst);
  if (next < 0) {
    ReturnCredit(f->prev_link, f->prev_vc);
    Drop(f);
    return;
  }
  Enqueue(next, f);
}

void RoutedFabricMedium::ReturnCredit(int link_id, int vc) {
  ++links_[static_cast<size_t>(link_id)].vcs[static_cast<size_t>(vc)].credits;
  TryStart(link_id);
}

void RoutedFabricMedium::Drop(Frame* f) {
  ++stats_.unroutable_drops;
  delete f;
  --in_flight_;
}

void RoutedFabricMedium::DrainDeadLink(int link_id) {
  LinkState& ls = links_[static_cast<size_t>(link_id)];
  const int from = topo_.links()[static_cast<size_t>(link_id)].from;
  for (auto& vc : ls.vcs) {
    std::deque<Frame*> q;
    q.swap(vc.q);
    for (Frame* f : q) {
      const int next = topo_.NextLink(from, f->dst);
      if (next < 0) {
        if (f->prev_link >= 0) ReturnCredit(f->prev_link, f->prev_vc);
        Drop(f);
      } else {
        Enqueue(next, f);
      }
    }
  }
}

void RoutedFabricMedium::CheckFaults() {
  for (size_t i = 0; i < opts_.link_faults.size(); ++i) {
    const auto& lf = opts_.link_faults[i];
    if (!fault_fired_[i] && frames_seen_ >= lf.after) {
      fault_fired_[i] = 1;
      if (topo_.SeverRouterLink(lf.a, lf.b).ok()) {
        for (const Link& l : topo_.links()) {
          if (topo_.LinkDead(l.id) &&
              ((l.from == lf.a && l.to == lf.b) ||
               (l.from == lf.b && l.to == lf.a))) {
            DrainDeadLink(l.id);
          }
        }
      }
    }
    if (fault_fired_[i] && !fault_healed_[i] && lf.heal >= 0 &&
        frames_seen_ >= static_cast<std::uint64_t>(lf.heal)) {
      fault_healed_[i] = 1;
      if (topo_.HealRouterLink(lf.a, lf.b).ok()) {
        for (const Link& l : topo_.links()) {
          if ((l.from == lf.a && l.to == lf.b) ||
              (l.from == lf.b && l.to == lf.a)) {
            TryStart(l.id);
          }
        }
      }
    }
  }
}

std::map<std::string, std::uint64_t> RoutedFabricMedium::ExtraCounters()
    const {
  std::map<std::string, std::uint64_t> out;
  out["fabric.routers"] = static_cast<std::uint64_t>(topo_.routers());
  out["fabric.links"] = static_cast<std::uint64_t>(topo_.links().size());
  if (topo_.severed_links() > 0)
    out["fabric.links_severed"] =
        static_cast<std::uint64_t>(topo_.severed_links());
  sim::SimTime max_busy = 0;
  sim::SimTime total_busy = 0;
  size_t hot = 0;
  for (size_t i = 0; i < link_use_.size(); ++i) {
    total_busy += link_use_[i].busy;
    if (link_use_[i].busy > max_busy) {
      max_busy = link_use_[i].busy;
      hot = i;
    }
  }
  if (max_busy > 0) {
    out["fabric.max_link_busy_us"] =
        static_cast<std::uint64_t>(sim::ToMicros(max_busy));
    out["fabric.mean_link_busy_us"] = static_cast<std::uint64_t>(
        sim::ToMicros(total_busy / static_cast<sim::SimTime>(
                                       link_use_.size())));
    out["fabric.hot_link"] = static_cast<std::uint64_t>(hot);
  }
  return out;
}

}  // namespace dse::simnet::fabric
