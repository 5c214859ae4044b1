#include "dse/recovery/membership.h"

#include <utility>

#include "common/log.h"

namespace dse::recovery {

Membership::Membership(KernelCore* core, Options options, std::mutex* core_mu)
    : core_(core),
      options_(std::move(options)),
      core_mu_(core_mu),
      nodes_dead_(core->metrics().counter("node.dead")),
      last_heard_ms_(static_cast<size_t>(core->num_nodes())),
      last_sent_ms_(static_cast<size_t>(core->num_nodes())),
      suspected_(static_cast<size_t>(core->num_nodes())),
      drain_initiated_(static_cast<size_t>(core->num_nodes())) {}

std::unique_lock<std::mutex> Membership::LockCore() {
  return core_mu_ != nullptr ? std::unique_lock<std::mutex>(*core_mu_)
                             : std::unique_lock<std::mutex>();
}

void Membership::Start(std::int64_t now_ms) {
  for (auto& stamp : last_heard_ms_) {
    stamp.store(now_ms, std::memory_order_relaxed);
  }
  for (auto& stamp : last_sent_ms_) {
    stamp.store(now_ms - options_.period_ms, std::memory_order_relaxed);
  }
  last_tick_ms_ = now_ms;
}

void Membership::Send(NodeId dst, std::uint32_t epoch, proto::Body body,
                      Actions* out) {
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = epoch;
  env.body = std::move(body);
  out->kernel.out.push_back(KernelCore::Outgoing{dst, std::move(env)});
}

Membership::Actions Membership::Tick(std::int64_t now_ms) {
  Actions out;
  const bool repl = core_->replication_on();
  // Pause compensation: time this monitor itself spent descheduled beyond
  // its period (host overload, a stopped process, a debugger) is
  // indistinguishable from peer silence — our own pause also kept us from
  // *hearing* heartbeats that may well have been sent. Credit the excess
  // back to every unsuspected peer so only time the monitor was
  // demonstrably running counts toward a timeout. A genuinely dead peer is
  // still detected: with the monitor ticking normally the excess is zero;
  // under sustained overload detection stretches instead of mass-declaring
  // the whole cluster dead on wake-up.
  const std::int64_t excess = now_ms - last_tick_ms_ - options_.period_ms;
  last_tick_ms_ = now_ms;
  if (excess > 0) {
    for (NodeId n = 0; n < num_nodes(); ++n) {
      if (n == self() || Suspected(n)) continue;
      last_heard_ms_[static_cast<size_t>(n)].fetch_add(
          excess, std::memory_order_relaxed);
    }
  }
  // Two passes: latch every peer that timed out this tick *before* acting
  // on any of them. A partition severs several links at once; evicting the
  // first silent peer while the others still look reachable would let a
  // minority side pass the quorum check it should fail.
  std::vector<bool> silent(static_cast<size_t>(num_nodes()), false);
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self() || Suspected(n)) continue;
    if (now_ms - last_heard_ms_[static_cast<size_t>(n)].load(
                     std::memory_order_relaxed) >
        options_.timeout_ms) {
      Latch(n, "heartbeat timeout", &out);
      silent[static_cast<size_t>(n)] = true;
    }
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (silent[static_cast<size_t>(n)]) Evict(n, 0, "heartbeat timeout", &out);
  }
  // A member still suspected from an earlier quorum park gets a fresh
  // detection window once a quorum is reachable again: heard within it, it
  // stays; silent through it, it times out and is evicted under that
  // quorum. Evicting it at once would race a healing partition, whose
  // first frames arrive one peer at a time. (Not mid-rejoin: the admission
  // replaces the whole view.)
  if (repl && !joining_.load(std::memory_order_relaxed) &&
      Reachable() >= core_->QuorumRequired()) {
    for (NodeId n = 0; n < num_nodes(); ++n) {
      if (n == self() || silent[static_cast<size_t>(n)] || !Suspected(n) ||
          !core_->NodeAlive(n)) {
        continue;
      }
      suspected_[static_cast<size_t>(n)].store(false,
                                               std::memory_order_relaxed);
      last_heard_ms_[static_cast<size_t>(n)].store(now_ms,
                                                   std::memory_order_relaxed);
    }
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self()) continue;
    // Keep probing a suspected peer that is still a member (we may be
    // quorum-parked on the minority side of a partition): when the
    // partition heals, the probes revoke the suspicion on both sides.
    if (Suspected(n) && (!repl || !core_->NodeAlive(n))) continue;
    // Any frame proves liveness: a peer sent something this period needs
    // no probe.
    if (now_ms - last_sent_ms_[static_cast<size_t>(n)].load(
                     std::memory_order_relaxed) <
        options_.period_ms) {
      continue;
    }
    Send(n, 0, proto::Heartbeat{}, &out);  // a lost probe is a silent period
  }
  if (!repl) return out;
  // Mid-rejoin: repeat the join request until our admission arrives. The
  // coordinator stops re-announcing the eviction once it has admitted us,
  // so a lost NodeJoinResp is repaired only by asking again (a member's
  // duplicate join is answered with the current view).
  if (joining_.load(std::memory_order_relaxed)) {
    Send(join_to_.load(std::memory_order_relaxed), 0,
         proto::NodeJoinReq{self()}, &out);
  }
  if (core_->CoordinatorView() == self()) {
    // The coordinator re-announces evictions every tick, so a survivor whose
    // EvictReq was lost converges without waiting for its own timeout. With
    // rejoin on, the eviction is announced to the evicted node itself too —
    // a restarted or healed node learns it was evicted and asks to rejoin.
    for (NodeId d = 0; d < num_nodes(); ++d) {
      if (!core_->NodeAlive(d)) Announce(d, core_->epoch(), &out);
    }
    // Planned drain duties: fire drain triggers, and once a draining peer
    // reports cutover-ready (and the scheduler here, if any, has no member
    // left on it), evict it under a bumped epoch — the lossless, planned
    // eviction. The node rejoins via the re-announcements above.
    for (NodeId d = 0; d < num_nodes(); ++d) {
      if (d == self() || !core_->NodeAlive(d)) continue;
      bool draining = false;
      bool ready = false;
      {
        const auto lock = LockCore();
        draining = core_->NodeDraining(d);
        ready = core_->DrainCutoverReady(d);
      }
      if (ready) {
        Evict(d, core_->epoch() + 1, "drain cutover", &out);
      } else if (draining) {
        // Until the target reports ready, repeat its DrainReq: a lost one
        // would leave it serving forever (it ignores duplicates).
        Send(d, core_->epoch(), proto::DrainReq{d, core_->epoch()}, &out);
      } else if (options_.drain_requested &&
                 options_.drain_requested(d) &&
                 !drain_initiated_[static_cast<size_t>(d)].exchange(
                     true, std::memory_order_relaxed)) {
        Actions drain = Drain(d);
        out.kernel.Append(std::move(drain.kernel));
      }
    }
  }
  // Retransmission tick for in-flight state transfers.
  const auto lock = LockCore();
  out.kernel.Append(core_->TickTransfers());
  return out;
}

Membership::Actions Membership::OnFrame(const proto::Envelope& env,
                                        std::int64_t now_ms) {
  Actions out;
  const NodeId src = env.src_node;
  // With replication, any frame revokes the suspicion of a peer that is
  // still a member — a quorum-parked side of a partition resumes this way
  // when the partition heals (a truly evicted node stays latched; it must
  // rejoin through the coordinator).
  if (Suspected(src) && src != self() && core_->replication_on() &&
      core_->NodeAlive(src)) {
    suspected_[static_cast<size_t>(src)].store(false,
                                               std::memory_order_relaxed);
    parked_.store(false, std::memory_order_relaxed);
    DSE_LOG(kWarn) << "node " << self() << ": suspicion of node " << src
                   << " revoked (frame received)";
  }
  switch (env.type()) {
    case proto::MsgType::kHeartbeat:
      out.consumed = true;
      break;
    case proto::MsgType::kEvictReq: {
      out.consumed = true;
      const auto& e = std::get<proto::EvictReq>(env.body);
      // Announcements carry their sender's epoch. One older than ours (a
      // duplicate, or one delayed past a later change such as the evicted
      // node's re-admission) is stale: applying it would evict a member
      // again, or make a re-admitted node wipe its state a second time.
      if (e.epoch < core_->epoch()) break;
      if (e.node == self() && core_->replication_on() &&
          core_->rejoin_enabled()) {
        // The cluster evicted *us* (we were partitioned away or presumed
        // dead): wipe the kernel state the cluster has moved past and ask
        // the announcer (the coordinator) for re-admission. The kernel
        // resets once; every re-announce re-sends the join request.
        join_to_.store(src, std::memory_order_relaxed);
        if (!joining_.exchange(true, std::memory_order_relaxed)) {
          const auto lock = LockCore();
          core_->ResetForRejoin();
        }
        Send(src, 0, proto::NodeJoinReq{self()}, &out);
        break;
      }
      Evict(e.node, e.epoch, "evicted by coordinator", &out);
      break;
    }
    case proto::MsgType::kNodeJoinResp: {
      // The kernel handles the membership change; clear the liveness
      // latches the admission obsoletes.
      const auto& jr = std::get<proto::NodeJoinResp>(env.body);
      if (jr.node == self()) {
        joining_.store(false, std::memory_order_relaxed);
        parked_.store(false, std::memory_order_relaxed);
        for (size_t i = 0; i < jr.alive.size() && i < suspected_.size(); ++i) {
          if (jr.alive[i] != 0) {
            suspected_[i].store(false, std::memory_order_relaxed);
            last_heard_ms_[i].store(now_ms, std::memory_order_relaxed);
          }
        }
      } else if (jr.node >= 0 && jr.node < num_nodes()) {
        suspected_[static_cast<size_t>(jr.node)].store(
            false, std::memory_order_relaxed);
        NoteHeard(jr.node, now_ms);
      }
      break;
    }
    default:
      break;
  }
  return out;
}

Membership::Actions Membership::OnRetrySignal(NodeId responder,
                                              const proto::RetryResp& rr) {
  Actions out;
  const std::uint32_t local = core_->epoch();
  if (rr.epoch > local && rr.evicted >= 0) {
    // The responder is ahead: adopt its eviction without waiting for our
    // own timeout or the coordinator's broadcast.
    Evict(rr.evicted, rr.epoch, "epoch gossip", &out);
  } else if (rr.epoch < local) {
    // The responder lags (it missed our last change): push-repair it.
    out.kernel.out.push_back(
        KernelCore::Outgoing{responder, core_->LastChange()});
  }
  return out;
}

Membership::Actions Membership::Drain(NodeId node) {
  Actions out;
  if (!core_->replication_on()) return out;
  if (node < 0 || node >= num_nodes() || !core_->NodeAlive(node)) return out;
  proto::Envelope env;
  env.req_id = 0;
  env.src_node = self();
  env.epoch = core_->epoch();
  env.body = proto::DrainReq{node, env.epoch};
  // Apply locally first (marks the node draining; the scheduler here stops
  // placing on it), then broadcast so every member — the target included —
  // converges on the same view.
  {
    const auto lock = LockCore();
    out.kernel.Append(core_->Handle(env));
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self() || !core_->NodeAlive(n)) continue;
    out.kernel.out.push_back(KernelCore::Outgoing{n, env});
  }
  return out;
}

void Membership::Latch(NodeId node, const char* why, Actions* out) {
  if (node < 0 || node >= num_nodes() || node == self()) return;
  if (!suspected_[static_cast<size_t>(node)].exchange(
          true, std::memory_order_relaxed)) {
    nodes_dead_->Add();
    DSE_LOG(kWarn) << "node " << self() << ": declaring node " << node
                   << " dead (" << why << ")";
    out->dead.push_back(node);
  }
}

int Membership::Reachable() const {
  int reachable = 0;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (!core_->NodeAlive(n)) continue;
    if (n == self() ||
        (!Suspected(n) &&
         last_tick_ms_ - last_heard_ms_[static_cast<size_t>(n)].load(
                             std::memory_order_relaxed) <=
             options_.timeout_ms / 2)) {
      ++reachable;
    }
  }
  return reachable;
}

void Membership::Evict(NodeId node, std::uint32_t epoch, const char* why,
                       Actions* out) {
  if (node < 0 || node >= num_nodes() || node == self()) return;
  Latch(node, why, out);
  if (!core_->replication_on() || !core_->NodeAlive(node)) return;
  // Quorum guard: a locally detected eviction (no epoch from a peer backing
  // it) needs a reachable strict majority (or --min-quorum), counting
  // ourselves and every current member heard within half a timeout. A peer
  // not yet suspected but silent that long is about to time out too (a
  // partition's timeouts can land a tick or two apart), so it does not
  // count. Below the bar we park: the suspicion stays latched, calls fail
  // over and retry, and no membership change happens until enough peers
  // are heard again or a quorum-held eviction reaches us by gossip.
  if (epoch == 0) {
    const int reachable = Reachable();
    if (reachable < core_->QuorumRequired()) {
      if (!parked_.exchange(true, std::memory_order_relaxed)) {
        core_->NoteQuorumPark();
        DSE_LOG(kWarn) << "node " << self() << ": quorum park — only "
                       << reachable << " member(s) reachable, need "
                       << core_->QuorumRequired();
      }
      return;
    }
    parked_.store(false, std::memory_order_relaxed);
  }
  const std::uint32_t new_epoch = epoch != 0 ? epoch : core_->epoch() + 1;
  {
    const auto lock = LockCore();
    out->kernel.Append(core_->ApplyEviction(node, new_epoch));
  }
  // The coordinator announces the eviction — with rejoin on to the evicted
  // node too, as its re-announcements do, so a live one (a drained node, a
  // healed partition) asks to rejoin at once. Everyone else has applied it
  // locally (own detection or a received EvictReq) and stays quiet.
  if (core_->CoordinatorView() == self()) Announce(node, new_epoch, out);
}

void Membership::Announce(NodeId evicted, std::uint32_t evict_epoch,
                          Actions* out) {
  const std::uint32_t cur = core_->epoch();
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == self()) continue;
    if (!core_->NodeAlive(n) && !(core_->rejoin_enabled() && n == evicted)) {
      continue;
    }
    Send(n, cur, proto::EvictReq{evicted, evict_epoch}, out);
  }
}

}  // namespace dse::recovery
