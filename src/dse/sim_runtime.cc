#include "dse/sim_runtime.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dse/client.h"
#include "dse/recovery/membership.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "simnet/ethernet.h"
#include "simnet/fabric/fabric.h"

namespace dse {
namespace {

// A message in flight inside the simulation, with its wire size (the size
// the real runtime would have put on the socket).
struct SimDelivery {
  proto::Envelope env;
  std::uint64_t bytes = 0;
};

struct SimNode;

// Whole-simulation state for one Run() call.
struct SimState {
  const SimOptions* options = nullptr;
  TaskRegistry* registry = nullptr;
  sim::Simulator sim;
  std::unique_ptr<simnet::Medium> medium;
  // Non-null view of `medium` when it is the routed fabric (per-link stats
  // live on the concrete type).
  simnet::fabric::RoutedFabricMedium* fabric = nullptr;
  std::vector<std::unique_ptr<SimNode>> nodes;
  // Fault injection (null = lossless wire). The injector's verdicts are a
  // pure function of the plan and each link's frame count, so the same plan
  // replays identically here and on the real fabrics.
  std::unique_ptr<net::FaultInjector> fault;
  net::DelayLine<SimDelivery> delayed;

  Gpid main_gpid = kNoGpid;
  sim::SimTime main_finished_at = 0;
  std::vector<std::uint8_t> main_result;
  std::vector<std::string> console;
  std::uint64_t messages = 0;
  std::uint64_t loopback = 0;

  int MachineCount() const {
    return options->machine_profiles.empty()
               ? options->profile.physical_machines
               : static_cast<int>(options->machine_profiles.size());
  }
  int MachineOf(NodeId node) const { return node % MachineCount(); }
  // Cost profile of the machine hosting `node` (heterogeneous clusters give
  // every machine its own).
  const platform::Profile& ProfileOf(NodeId node) const {
    if (options->machine_profiles.empty()) return options->profile;
    return options->machine_profiles[static_cast<size_t>(MachineOf(node))];
  }
  int KernelsOnMachine(int machine) const {
    const int n = options->num_processors;
    const int p = MachineCount();
    return n / p + (machine < n % p ? 1 : 0);
  }
  int KernelsOf(NodeId node) const {
    return KernelsOnMachine(MachineOf(node));
  }
  bool legacy() const {
    return options->organization == OrganizationMode::kLegacyTwoProcess;
  }

  // Routes an encoded message from `src` to `dst`'s mailbox, through the
  // medium when the nodes sit on different physical machines. Consults the
  // fault injector first when one is active.
  void Deliver(NodeId src, NodeId dst, proto::Envelope env,
               std::uint64_t bytes);
  // The raw routing step (post-injection).
  void Forward(NodeId src, NodeId dst, proto::Envelope env,
               std::uint64_t bytes);

  // Kills already reacted to (a kill schedule fires exactly once).
  std::set<NodeId> deaths_handled;

  // Checks the injector for newly fired kills and drops each dead node's
  // frames still sitting in delay queues.
  void NoteDeaths();
};

struct SimNode {
  SimNode(NodeId id, int num_nodes, KernelOptions kopts, SimState* state)
      : core(id, num_nodes, std::move(kopts)),
        mailbox(&state->sim),
        state(state) {}

  KernelCore core;
  // The membership protocol; null unless its process runs (replication on
  // with a fault plan or a rolling restart).
  std::unique_ptr<recovery::Membership> membership;
  sim::Channel<SimDelivery> mailbox;
  SimState* state;

  std::uint64_t next_req_id = 1;
  // Response channel of the task blocked on each req_id.
  std::unordered_map<std::uint64_t, sim::Channel<proto::Envelope>*> pending;

  bool shutting_down = false;
};

// Performs kernel actions from whatever simulated process is running
// (defined below; the RPC layer's epoch-bounce path needs it early).
void PerformActions(sim::Context& ctx, SimState& state, SimNode& node,
                    KernelCore::Actions actions);

// Virtual time on the membership protocol's millisecond clock.
std::int64_t NowMs(const sim::Context& ctx) {
  return static_cast<std::int64_t>(ctx.Now() / sim::Millis(1));
}

void SimState::NoteDeaths() {
  if (fault == nullptr) return;
  for (const net::FaultPlan::Kill& kill : options->fault_plan.kills) {
    if (kill.node < 0 ||
        kill.node >= static_cast<NodeId>(nodes.size()) ||
        deaths_handled.count(kill.node) != 0 ||
        !fault->NodeDead(kill.node)) {
      continue;
    }
    deaths_handled.insert(kill.node);
    // A write the primary sent before the kill must not surface after the
    // backup has been promoted (it would silently overwrite newer state).
    const size_t drained = delayed.DropNode(kill.node);
    if (drained > 0) {
      DSE_LOG(kInfo) << "sim: dropped " << drained
                     << " held frame(s) of dead node " << kill.node;
    }
  }
}

void SimState::Forward(NodeId src, NodeId dst, proto::Envelope env,
                       std::uint64_t bytes) {
  SimNode& target = *nodes[static_cast<size_t>(dst)];
  const proto::MsgType env_type = env.type();
  auto push = [&target, env = std::move(env), bytes]() mutable {
    target.mailbox.Push(SimDelivery{std::move(env), bytes});
  };
  if (MachineOf(src) == MachineOf(dst)) {
    ++loopback;
    sim.After(ProfileOf(src).loopback_latency, std::move(push));
  } else if (env_type == proto::MsgType::kShutdown &&
             !medium->Reachable(MachineOf(src), MachineOf(dst))) {
    // Shutdown is an out-of-band teardown channel (see Deliver): a fabric
    // partition must not strand a kernel process blocked on its mailbox.
    sim.After(options->profile.net.propagation, std::move(push));
  } else {
    medium->Transmit(MachineOf(src), MachineOf(dst), bytes, std::move(push));
  }
}

void SimState::Deliver(NodeId src, NodeId dst, proto::Envelope env,
                       std::uint64_t bytes) {
  ++messages;
  // Shutdown is immune (an out-of-band teardown channel): without it a
  // killed node's kernel process would block forever and deadlock the
  // simulation at quiesce time.
  if (fault != nullptr && env.type() != proto::MsgType::kShutdown) {
    const net::FaultAction act = fault->OnSend(src, dst, bytes);
    // A kill schedule may just have fired ("at N frames"); react exactly at
    // the frame that triggered it so every run detects at the same instant.
    NoteDeaths();
    // Age held frames before (possibly) holding this one — a frame never
    // releases itself; released frames go out after the current frame.
    std::vector<SimDelivery> due = delayed.OnFramePassed(src, dst);
    if (act.delay_frames > 0) {
      delayed.Hold(src, dst, SimDelivery{std::move(env), bytes},
                   act.delay_frames);
    } else if (act.deliver) {
      if (act.truncate_to >= 0) {
        // A truncated frame fails Decode on a real fabric and is dropped at
        // the receiver; the sim keeps envelopes structured, so truncation
        // degenerates to the same drop.
      } else {
        proto::Envelope copy;
        const bool dup = act.duplicate;
        if (dup) copy = env;
        Forward(src, dst, std::move(env), bytes);
        if (dup) Forward(src, dst, std::move(copy), bytes);
      }
    }
    for (SimDelivery& d : due) Forward(src, dst, std::move(d.env), d.bytes);
    return;
  }
  Forward(src, dst, std::move(env), bytes);
}

// Sends one kernel message, charging the sender's software path cost in the
// calling process's virtual time.
void ChargeAndSend(sim::Context& ctx, SimState& state, NodeId src, NodeId dst,
                   proto::Envelope env) {
  const std::uint64_t bytes = proto::Encode(env).size();
  SimNode& src_node = *state.nodes[static_cast<size_t>(src)];
  KernelCore& src_core = src_node.core;
  if (src_node.membership != nullptr) {
    src_node.membership->NoteSent(dst, NowMs(ctx));
  }
  src_core.CountSent(env.type());
  src_core.CountWireSent(bytes);
  const int k = state.KernelsOf(src);
  const platform::Profile& prof = state.ProfileOf(src);
  sim::SimTime cost = platform::SendCost(prof, bytes, k);
  if (state.legacy()) {
    // Old organization: the request crosses to the kernel process first.
    cost += prof.legacy_ipc_hop * k;
  }
  ctx.Sleep(cost);
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{
        ctx.Now(), trace::EventKind::kSend, src, dst,
        std::string(proto::MsgTypeName(env.type())), bytes});
  }
  state.Deliver(src, dst, std::move(env), bytes);
}

// --- Task-side RPC ----------------------------------------------------------

class SimRpc final : public RpcChannel {
 public:
  SimRpc(SimNode* node, sim::Context* ctx)
      : node_(node), ctx_(ctx), resp_(&node->state->sim) {}

  Result<proto::Envelope> Call(NodeId dst, proto::Body body,
                               const CallPolicy& policy) override {
    std::vector<std::pair<NodeId, proto::Body>> one;
    one.emplace_back(dst, std::move(body));
    auto resps = CallMany(std::move(one), policy);
    if (!resps.ok()) return resps.status();
    return std::move((*resps)[0]);
  }

  Result<std::vector<proto::Envelope>> CallMany(
      std::vector<std::pair<NodeId, proto::Body>> calls,
      const CallPolicy& policy) override {
    // Issue every request (each still pays its software send cost in this
    // task's virtual time), then collect the responses, which may arrive in
    // any order. Under an active fault plan the collection is bounded by the
    // policy's per-attempt deadline in *virtual* time, with resends of the
    // same req_ids; a lossless simulation waits unbounded as before (and
    // schedules no timer events).
    SimState& state = *node_->state;
    struct Slot {
      NodeId dst = -1;
      proto::Envelope env;  // kept for resends
      int attempts = 1;
      bool done = false;
    };
    std::vector<Slot> slots;
    slots.reserve(calls.size());
    for (auto& [dst, body] : calls) {
      Slot s;
      s.dst = dst;  // natural destination; each (re)send re-resolves
      s.env.req_id = node_->next_req_id++;
      s.env.src_node = node_->core.self();
      s.env.body = std::move(body);
      if (node_->core.replication_on()) s.env.epoch = node_->core.epoch();
      node_->pending.emplace(s.env.req_id, &resp_);
      proto::Envelope copy = s.env;
      const NodeId routed = Routed(dst);
      slots.push_back(std::move(s));
      ChargeAndSend(*ctx_, state, node_->core.self(), routed,
                    std::move(copy));
    }
    const bool bounded = state.fault != nullptr && policy.deadline_ms > 0;
    const int max_attempts = std::max(1, policy.max_attempts);
    std::unordered_map<std::uint64_t, size_t> index;
    index.reserve(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      index.emplace(slots[i].env.req_id, i);
    }
    std::unordered_map<std::uint64_t, proto::Envelope> got;
    size_t remaining = slots.size();
    while (remaining > 0) {
      std::optional<proto::Envelope> resp;
      if (bounded) {
        resp = resp_.PopUntil(
            *ctx_, ctx_->Now() + sim::Millis(policy.deadline_ms));
      } else {
        resp = resp_.Pop(*ctx_);
      }
      if (resp.has_value()) {
        const auto it = index.find(resp->req_id);
        if (it == index.end() || slots[it->second].done) {
          // A response to a call this channel already gave up on (its reply
          // raced the final timeout into our mailbox), or a duplicate.
          node_->core.metrics().counter("rpc.stale_resp")->Add();
          continue;
        }
        if (const auto* rr = std::get_if<proto::RetryResp>(&resp->body)) {
          // Epoch bounce: the two sides disagree on the membership epoch.
          // Adopt the responder's eviction if it is ahead, or push-repair
          // it if it lags; then, after a short pause, re-resolve the route,
          // re-stamp and resend the same req_id (a promoted backup replays
          // recorded responses).
          Slot& s = slots[it->second];
          node_->core.metrics().counter("recovery.client_retries")->Add();
          if (node_->membership != nullptr) {
            PerformActions(
                *ctx_, state, *node_,
                node_->membership->OnRetrySignal(resp->src_node, *rr).kernel);
          }
          ctx_->Sleep(sim::Millis(1));
          if (node_->core.replication_on()) {
            s.env.epoch = node_->core.epoch();
          }
          node_->pending.emplace(s.env.req_id, &resp_);
          proto::Envelope copy = s.env;
          ChargeAndSend(*ctx_, state, node_->core.self(), Routed(s.dst),
                        std::move(copy));
          continue;
        }
        slots[it->second].done = true;
        got.emplace(resp->req_id, std::move(*resp));
        --remaining;
        continue;
      }
      // Deadline expired: every outstanding call timed out this attempt.
      for (const Slot& s : slots) {
        if (!s.done) node_->core.metrics().counter("rpc.timeout")->Add();
      }
      int worst_attempt = 0;
      for (Slot& s : slots) {
        if (s.done) continue;
        worst_attempt = std::max(worst_attempt, s.attempts);
        if (s.attempts >= max_attempts) {
          // Final failure: abandon every outstanding call so late replies
          // become counted orphans instead of corrupting a future call.
          for (const Slot& o : slots) {
            if (!o.done) node_->pending.erase(o.env.req_id);
          }
          return Timeout("rpc to node " + std::to_string(s.dst) +
                         " timed out after " +
                         std::to_string(max_attempts) + " attempt(s)");
        }
      }
      // Back off in virtual time (base 0: the deadline alone paces the
      // resends), then resend the SAME req_ids (the home's at-most-once
      // cache absorbs duplicates).
      const int base = policy.backoff_base_ms;
      if (base > 0) {
        ctx_->Sleep(sim::Millis(
            std::min(1000, base << std::min(worst_attempt - 1, 10))));
      }
      for (Slot& s : slots) {
        if (s.done) continue;
        ++s.attempts;
        node_->core.metrics().counter("rpc.retry")->Add();
        // Re-resolve and re-stamp: the silence may be a dead destination
        // whose eviction has since been applied.
        if (node_->core.replication_on()) s.env.epoch = node_->core.epoch();
        proto::Envelope copy = s.env;
        ChargeAndSend(*ctx_, state, node_->core.self(), Routed(s.dst),
                      std::move(copy));
      }
    }
    std::vector<proto::Envelope> out;
    out.reserve(slots.size());
    for (const Slot& s : slots) {
      out.push_back(std::move(got.at(s.env.req_id)));
    }
    return out;
  }

  Status Post(NodeId dst, proto::Body body) override {
    proto::Envelope env;
    env.req_id = 0;
    env.src_node = node_->core.self();
    env.body = std::move(body);
    if (node_->core.replication_on()) env.epoch = node_->core.epoch();
    ChargeAndSend(*ctx_, *node_->state, node_->core.self(), Routed(dst),
                  std::move(env));
    return Status::Ok();
  }

 private:
  // Node currently serving `natural`'s homes (the promoted backup after an
  // eviction; identity while replication is off).
  NodeId Routed(NodeId natural) const {
    return node_->core.replication_on() ? node_->core.RouteOf(natural)
                                        : natural;
  }

  SimNode* node_;
  sim::Context* ctx_;
  sim::Channel<proto::Envelope> resp_;
};

// --- Task implementation ----------------------------------------------------

class SimTask final : public Task {
 public:
  SimTask(SimNode* node, sim::Context* ctx, Gpid gpid,
          std::vector<std::uint8_t> arg)
      : node_(node),
        ctx_(ctx),
        gpid_(gpid),
        arg_(std::move(arg)),
        rpc_(node, ctx),
        client_(&rpc_, &node->core) {}

  NodeId node() const override { return node_->core.self(); }
  Gpid gpid() const override { return gpid_; }
  int num_nodes() const override { return node_->core.num_nodes(); }
  const std::vector<std::uint8_t>& arg() const override { return arg_; }
  void SetResult(std::vector<std::uint8_t> result) override {
    result_ = std::move(result);
  }
  std::vector<std::uint8_t> TakeResult() { return std::move(result_); }

  Result<gmm::GlobalAddr> AllocStriped(std::uint64_t size,
                                       std::uint8_t block_log2) override {
    return client_.AllocStriped(size, block_log2);
  }
  Result<gmm::GlobalAddr> AllocOnNode(std::uint64_t size,
                                      NodeId home) override {
    return client_.AllocOnNode(size, home);
  }
  Status Free(gmm::GlobalAddr addr) override { return client_.Free(addr); }
  Status Read(gmm::GlobalAddr addr, void* out, std::uint64_t len) override {
    return client_.Read(addr, out, len);
  }
  Status Write(gmm::GlobalAddr addr, const void* src,
               std::uint64_t len) override {
    return client_.Write(addr, src, len);
  }
  Result<std::int64_t> AtomicFetchAdd(gmm::GlobalAddr addr,
                                      std::int64_t delta) override {
    return client_.AtomicFetchAdd(addr, delta);
  }
  Result<std::int64_t> AtomicCompareExchange(gmm::GlobalAddr addr,
                                             std::int64_t expected,
                                             std::int64_t desired) override {
    return client_.AtomicCompareExchange(addr, expected, desired);
  }
  Status Lock(std::uint64_t lock_id) override { return client_.Lock(lock_id); }
  Status Unlock(std::uint64_t lock_id) override {
    return client_.Unlock(lock_id);
  }
  Status Barrier(std::uint64_t barrier_id, int parties) override {
    return client_.Barrier(barrier_id, parties);
  }
  Result<Gpid> Spawn(const std::string& task_name,
                     std::vector<std::uint8_t> arg,
                     NodeId node_hint) override {
    return client_.Spawn(task_name, std::move(arg), node_hint);
  }
  Result<std::vector<std::uint8_t>> Join(Gpid gpid) override {
    return client_.Join(gpid);
  }

  void Compute(double work_units) override {
    ctx_->Sleep(platform::ComputeTime(node_->state->ProfileOf(node()),
                                      work_units,
                                      node_->state->KernelsOf(node())));
  }
  void Print(const std::string& text) override {
    (void)client_.Print(gpid_, text);
  }
  Result<std::vector<proto::PsEntry>> ClusterPs() override {
    return client_.ClusterPs();
  }
  Result<std::vector<MetricsSnapshot>> ClusterStats() override {
    return client_.ClusterStats();
  }
  Status PublishName(const std::string& name, std::uint64_t value) override {
    return client_.PublishName(name, value);
  }
  Result<std::uint64_t> LookupName(const std::string& name) override {
    return client_.LookupName(name);
  }
  Result<std::uint64_t> SubmitJob(std::uint32_t tenant,
                                  const std::string& task_name,
                                  std::vector<std::uint8_t> arg,
                                  std::uint32_t gang,
                                  NodeId locality_hint) override {
    return client_.SubmitJob(tenant, task_name, std::move(arg), gang,
                             locality_hint);
  }
  Result<std::map<std::string, std::uint64_t>> SchedStat() override {
    return client_.SchedStat();
  }

 private:
  SimNode* node_;
  sim::Context* ctx_;
  Gpid gpid_;
  std::vector<std::uint8_t> arg_;
  std::vector<std::uint8_t> result_;
  SimRpc rpc_;
  TaskClient client_;
};

// Body of a spawned DSE process.
void RunTaskBody(sim::Context& ctx, SimState& state, SimNode& node,
                 KernelCore::StartTask st) {
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{ctx.Now(),
                                              trace::EventKind::kTaskStart,
                                              node.core.self(), -1,
                                              st.task_name, st.gpid});
  }
  std::vector<std::uint8_t> result;
  {
    SimTask task(&node, &ctx, st.gpid, std::move(st.arg));
    // Validation happened at spawn time; a miss here means a concurrent
    // re-registration — degrade to an empty result rather than aborting.
    if (TaskFn fn = state.registry->TryGet(st.task_name)) {
      fn(task);
    } else {
      DSE_LOG(kWarn) << "sim node " << node.core.self() << ": task '"
                     << st.task_name << "' not registered; finishing empty";
    }
    result = task.TakeResult();
  }
  if (st.gpid == state.main_gpid) {
    state.main_finished_at = ctx.Now();
    state.main_result = result;
  }
  if (state.options->trace != nullptr) {
    state.options->trace->Record(trace::Event{ctx.Now(),
                                              trace::EventKind::kTaskExit,
                                              node.core.self(), -1,
                                              st.task_name, st.gpid});
  }
  KernelCore::Actions actions =
      node.core.OnLocalTaskExit(st.gpid, std::move(result));
  PerformActions(ctx, state, node, std::move(actions));

  if (st.gpid == state.main_gpid) {
    // SSI teardown: the master announces shutdown to every kernel.
    for (NodeId n = 0; n < static_cast<NodeId>(state.nodes.size()); ++n) {
      proto::Envelope env;
      env.req_id = 0;
      env.src_node = node.core.self();
      env.body = proto::Shutdown{};
      ChargeAndSend(ctx, state, node.core.self(), n, std::move(env));
    }
  }
}

void PerformActions(sim::Context& ctx, SimState& state, SimNode& node,
                    KernelCore::Actions actions) {
  for (auto& line : actions.console) {
    state.console.push_back(std::move(line));
  }
  for (auto& out : actions.out) {
    ChargeAndSend(ctx, state, node.core.self(), out.dst, std::move(out.env));
  }
  for (auto& st : actions.start) {
    state.sim.Spawn(
        "task-" + GpidToString(st.gpid),
        [&state, &node, st = std::move(st)](sim::Context& task_ctx) mutable {
          RunTaskBody(task_ctx, state, node, std::move(st));
        });
  }
  // actions.shutdown is handled by the kernel loop.
}

// Body of a node's kernel service process.
void KernelLoop(sim::Context& ctx, SimState& state, SimNode& node) {
  const platform::Profile& prof = state.ProfileOf(node.core.self());
  for (;;) {
    SimDelivery d = node.mailbox.Pop(ctx);
    node.core.CountRecv(d.env.type());
    node.core.CountWireRecv(d.bytes);
    const int k = state.KernelsOf(node.core.self());
    ctx.Sleep(platform::RecvCost(prof, d.bytes, k));
    if (state.options->trace != nullptr) {
      state.options->trace->Record(trace::Event{
          ctx.Now(), trace::EventKind::kHandle, node.core.self(),
          d.env.src_node, std::string(proto::MsgTypeName(d.env.type())),
          d.bytes});
    }

    if (node.membership != nullptr) {
      // Membership traffic (heartbeats, evictions) stops here; a frame from
      // a suspected member revokes the suspicion and goes on.
      const std::int64_t now = NowMs(ctx);
      node.membership->NoteHeard(d.env.src_node, now);
      recovery::Membership::Actions m = node.membership->OnFrame(d.env, now);
      PerformActions(ctx, state, node, std::move(m.kernel));
      if (m.consumed) continue;
    }

    if (proto::IsClientResponse(d.env.type())) {
      // Epoch-gated cache fill — same rule as the threaded host: a block
      // served under an older membership epoch is delivered to the waiting
      // call but never cached (no live copyset tracks that copy).
      if (d.env.epoch == node.core.epoch()) {
        if (auto* rr = std::get_if<proto::ReadResp>(&d.env.body);
            rr != nullptr && rr->block_fetch) {
          node.core.CacheInsert(rr->addr, rr->data);
        } else if (auto* br = std::get_if<proto::BatchResp>(&d.env.body)) {
          for (const proto::BatchItemResp& item : br->items) {
            if (item.block_fetch) node.core.CacheInsert(item.addr, item.data);
          }
        }
      }
      const auto it = node.pending.find(d.env.req_id);
      if (it == node.pending.end()) {
        // Expected under faults: the duplicate of a dup'd response, or an
        // answer arriving after its call was abandoned. Without a fault
        // plan the wire is lossless and this cannot happen.
        DSE_CHECK_MSG(state.fault != nullptr, "orphan response in sim");
        node.core.metrics().counter("rpc.orphan_resp")->Add();
        continue;
      }
      sim::Channel<proto::Envelope>* resp = it->second;
      node.pending.erase(it);
      if (state.legacy()) {
        // Old organization: response crosses back to the app process.
        ctx.Sleep(prof.legacy_ipc_hop * k);
      }
      resp->Push(std::move(d.env));
      continue;
    }

    KernelCore::Actions actions = node.core.Handle(d.env);
    if (actions.shutdown) return;
    PerformActions(ctx, state, node, std::move(actions));
  }
}

// Body of a node's membership process: the failure detector and its duties
// (recovery::Membership::Tick) on virtual time, where the threaded runtime
// runs its heartbeat thread. Exits once the main task has finished so the
// simulation can quiesce.
void MembershipLoop(sim::Context& ctx, SimState& state, SimNode& node,
                    int period_ms) {
  node.membership->Start(NowMs(ctx));
  for (;;) {
    ctx.Sleep(sim::Millis(period_ms));
    if (state.main_finished_at != 0) return;
    PerformActions(ctx, state, node, node.membership->Tick(NowMs(ctx)).kernel);
  }
}

}  // namespace

SimRuntime::SimRuntime(SimOptions options) : options_(std::move(options)) {
  DSE_CHECK(options_.num_processors > 0);
  DSE_CHECK(options_.profile.physical_machines > 0);
  // The shared medium spans the machines; a heterogeneous cluster still has
  // one LAN (options_.profile.net).
}

int SimRuntime::KernelsOnMachineOf(NodeId node) const {
  const int p = options_.machine_profiles.empty()
                    ? options_.profile.physical_machines
                    : static_cast<int>(options_.machine_profiles.size());
  const int n = options_.num_processors;
  const int machine = node % p;
  return n / p + (machine < n % p ? 1 : 0);
}

SimReport SimRuntime::Run(const std::string& main_name,
                          std::vector<std::uint8_t> arg) {
  DSE_CHECK_MSG(registry_.Has(main_name), "main task not registered");
  const int n = options_.num_processors;

  SimState state;
  state.options = &options_;
  state.registry = &registry_;

  switch (options_.medium) {
    case MediumKind::kSharedBus:
      state.medium = std::make_unique<simnet::SharedBusMedium>(
          &state.sim, options_.profile.net, options_.seed);
      break;
    case MediumKind::kSwitched:
      state.medium = std::make_unique<simnet::SwitchedMedium>(
          &state.sim, options_.profile.net, state.MachineCount());
      break;
    case MediumKind::kRoutedFabric: {
      simnet::fabric::FabricOptions fopts = options_.fabric;
      for (const auto& fs : options_.fault_plan.fabric_links) {
        simnet::fabric::FabricOptions::LinkFault lf;
        lf.a = fs.a;
        lf.b = fs.b;
        lf.after = fs.after;
        lf.heal = fs.heal;
        fopts.link_faults.push_back(lf);
      }
      auto spec = simnet::fabric::ParseTopologySpec(fopts.topology,
                                                   state.MachineCount());
      DSE_CHECK_MSG(spec.ok(), std::string(spec.status().message()).c_str());
      auto topo = simnet::fabric::Topology::Build(
          *spec, state.MachineCount(), options_.seed);
      DSE_CHECK_MSG(topo.ok(), std::string(topo.status().message()).c_str());
      auto fabric = std::make_unique<simnet::fabric::RoutedFabricMedium>(
          &state.sim, options_.profile.net, std::move(fopts),
          std::move(topo).value(), options_.seed);
      state.fabric = fabric.get();
      state.medium = std::move(fabric);
      break;
    }
  }
  DSE_CHECK_MSG(options_.fault_plan.fabric_links.empty() ||
                    state.fabric != nullptr,
                "fault plan has flink directives but the medium is not the "
                "routed fabric");

  const bool lossy = options_.fault_plan.enabled();
  DSE_CHECK_OK(CheckLossyDeadline(options_, lossy));
  if (lossy) {
    state.fault = std::make_unique<net::FaultInjector>(options_.fault_plan);
  }

  for (NodeId i = 0; i < n; ++i) {
    KernelOptions kopts = KernelOptionsFor(options_, lossy);
    kopts.has_task = [this](const std::string& name) {
      return registry_.Has(name);
    };
    kopts.task_idempotent = [this](const std::string& name) {
      return registry_.IsIdempotent(name);
    };
    // Scheduler latency accounting in virtual microseconds. `state` outlives
    // every node (both live in this Run frame).
    kopts.now_us = [&state] {
      return static_cast<std::uint64_t>(sim::ToMicros(state.sim.Now()));
    };
    state.nodes.push_back(
        std::make_unique<SimNode>(i, n, std::move(kopts), &state));
  }

  // The membership protocol, one instance per node, exactly where the
  // threaded runtime would run its heartbeat thread. A rolling restart
  // counts as lossy here: each drain needs the coordinator's tick.
  const int period_ms = HeartbeatOptions{}.EffectivePeriodMs(
      lossy || options_.rolling);
  if (state.nodes[0]->core.replication_on() && period_ms > 0) {
    recovery::Membership::Options mopts;
    mopts.period_ms = period_ms;
    mopts.timeout_ms = HeartbeatOptions{}.EffectiveTimeoutMs(period_ms);
    if (state.fault != nullptr && !options_.fault_plan.drains.empty()) {
      net::FaultInjector* fault = state.fault.get();
      mopts.drain_requested = [fault](NodeId peer) {
        return fault->NodeDraining(peer);
      };
    }
    for (auto& node : state.nodes) {
      node->membership =
          std::make_unique<recovery::Membership>(&node->core, mopts);
    }
  }

  // Kernel service and membership processes.
  for (NodeId i = 0; i < n; ++i) {
    SimNode* node = state.nodes[static_cast<size_t>(i)].get();
    state.sim.Spawn("kernel-" + std::to_string(i),
                    [&state, node](sim::Context& ctx) {
                      KernelLoop(ctx, state, *node);
                    });
    if (node->membership != nullptr) {
      state.sim.Spawn("membership-" + std::to_string(i),
                      [&state, node, period_ms](sim::Context& ctx) {
                        MembershipLoop(ctx, state, *node, period_ms);
                      });
    }
  }

  // Rolling-restart maintenance driver (docs/recovery.md): asks the
  // coordinator (node 0, never drained) to drain every other node in
  // sequence while the main task keeps running. The membership protocol does
  // the rest — cutover eviction, re-announce, rejoin, home hand-back — and
  // each cycle waits for the node to be fully re-admitted (own home handed
  // back, all transfers drained) before the next begins, so exactly one node
  // is ever out of the serving set.
  if (options_.rolling) {
    DSE_CHECK_MSG(options_.replication > 0 && options_.rejoin,
                  "rolling restarts require replication and rejoin");
    state.sim.Spawn("rolling-restart", [&state](sim::Context& ctx) {
      constexpr int kPollMs = 5;
      // Let the cluster come up and the workload start before the first
      // drain.
      ctx.Sleep(sim::Millis(10 * kPollMs));
      SimNode& coord = *state.nodes[0];
      const NodeId count = static_cast<NodeId>(state.nodes.size());
      for (NodeId d = 1; d < count; ++d) {
        if (state.main_finished_at != 0) return;
        // The cycle is done after two membership changes (the planned
        // eviction and the re-admission) once the node serves again.
        const std::uint32_t done_epoch = coord.core.epoch() + 2;
        PerformActions(ctx, state, coord, coord.membership->Drain(d).kernel);
        SimNode& dn = *state.nodes[static_cast<size_t>(d)];
        for (;;) {
          ctx.Sleep(sim::Millis(kPollMs));
          if (state.main_finished_at != 0) return;
          if (coord.core.epoch() < done_epoch) continue;
          bool idle = true;
          for (const auto& entry : state.nodes) {
            if (!entry->core.transfers_idle()) {
              idle = false;
              break;
            }
          }
          if (idle && dn.core.NodeAlive(d) && !dn.core.own_home_pending()) {
            break;
          }
        }
      }
    });
  }

  // Bootstrap the main DSE process on node 0.
  SimNode* node0 = state.nodes[0].get();
  state.main_gpid = node0->core.RegisterLocalTask(main_name);
  KernelCore::StartTask main_start{state.main_gpid, main_name,
                                   std::move(arg)};
  state.sim.Spawn("task-main",
                  [&state, node0, st = std::move(main_start)](
                      sim::Context& ctx) mutable {
                    RunTaskBody(ctx, state, *node0, std::move(st));
                  });

  state.sim.RunUntilIdle();

  SimReport report;
  report.virtual_seconds = sim::ToSeconds(state.main_finished_at);
  report.main_result = std::move(state.main_result);
  report.console = std::move(state.console);
  report.messages = state.messages;
  report.loopback = state.loopback;
  const simnet::MediumStats& net = state.medium->stats();
  report.wire_frames = net.frames;
  report.wire_bytes = net.wire_bytes;
  report.collisions = net.collisions;
  // For the single-segment media busy_time/makespan is the medium's
  // utilization; a fabric sums busy time across many links, so report its
  // hottest link instead (the serialization bottleneck).
  sim::SimTime busy_for_util = net.busy_time;
  if (state.fabric != nullptr) {
    busy_for_util = 0;
    for (const auto& use : state.fabric->link_use())
      busy_for_util = std::max(busy_for_util, use.busy);
  }
  report.bus_utilization =
      state.main_finished_at > 0
          ? static_cast<double>(busy_for_util) /
                static_cast<double>(state.main_finished_at)
          : 0.0;
  for (const auto& node : state.nodes) {
    report.cache_hits += node->core.stats().cache_hits;
    report.cache_misses += node->core.stats().cache_misses;
    report.invalidations += node->core.gmm_stats().invalidations;
  }

  // SSI introspection views. Counter values are a pure function of
  // (options, arg): all counting happens in the deterministic event loop.
  report.node_stats.reserve(state.nodes.size());
  for (const auto& node : state.nodes) {
    report.node_stats.push_back(node->core.StatsSnapshot());
    auto entries = node->core.PsSnapshot();
    report.ps.insert(report.ps.end(), entries.begin(), entries.end());
    for (const auto& [name, s] : node->core.metrics().HistogramSnapshot()) {
      report.histograms[name].Merge(s);
    }
  }
  report.medium_counters = simnet::MediumCounters(*state.medium);
  if (state.fault != nullptr) report.fault_counters = state.fault->Counters();

  // Final counter samples into the trace (Chrome counter tracks). Stamped at
  // the simulator's final time so the timeline stays monotonic — the cluster
  // keeps draining shutdowns after the main task finishes.
  if (options_.trace != nullptr) {
    for (size_t n = 0; n < report.node_stats.size(); ++n) {
      for (const auto& [name, value] : report.node_stats[n]) {
        options_.trace->Record(trace::Event{state.sim.Now(),
                                            trace::EventKind::kCounter,
                                            static_cast<NodeId>(n), -1, name,
                                            value});
      }
    }
  }

  last_node_stats_ = report.node_stats;
  last_ps_ = report.ps;
  last_medium_counters_ = report.medium_counters;
  return report;
}

}  // namespace dse
