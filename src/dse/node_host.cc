#include "dse/node_host.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dse/client.h"
#include "dse/recovery/recovery.h"

namespace dse {

// One blocked client call waiting for its response. On failure (timeout
// final, peer dead, service exit) `error` is set instead of `resp`.
struct NodeHost::Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  proto::Envelope resp;
  Status error = Status::Ok();
};

namespace {

// Delivers a response or failure to a waiter. The waiter lives on the
// calling task's stack and is destroyed as soon as that task observes
// `ready`; notifying while holding the mutex keeps the condition variable
// alive through the notify (the waiter cannot re-acquire the mutex, return
// and destruct until we release it).
void DeliverResponse(NodeHost::Waiter* waiter, proto::Envelope env) {
  std::lock_guard<std::mutex> lock(waiter->mu);
  waiter->resp = std::move(env);
  waiter->ready = true;
  waiter->cv.notify_one();
}

void DeliverFailure(NodeHost::Waiter* waiter, const Status& error) {
  std::lock_guard<std::mutex> lock(waiter->mu);
  waiter->error = error;
  waiter->ready = true;
  waiter->cv.notify_one();
}

// Consumes a ready waiter (must only be called after `ready` was observed
// or while willing to block for it).
Result<proto::Envelope> TakeOutcome(NodeHost::Waiter* waiter) {
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->ready; });
  if (!waiter->error.ok()) return waiter->error;
  return std::move(waiter->resp);
}

// RpcChannel over the host's endpoint + pending table.
class HostRpc final : public RpcChannel {
 public:
  explicit HostRpc(NodeHost* host) : host_(host) {}

  Result<proto::Envelope> Call(NodeId dst, proto::Body body,
                               const CallPolicy& policy) override {
    proto::Envelope env;
    env.req_id = host_->NextReqId();
    env.src_node = host_->self();
    env.body = std::move(body);
    return host_->CallAndAwait(dst, std::move(env), policy);
  }

  Result<std::vector<proto::Envelope>> CallMany(
      std::vector<std::pair<NodeId, proto::Body>> calls,
      const CallPolicy& policy) override {
    // True pipelining: register every waiter, send every request, then
    // collect. FIFO transports preserve per-destination order, so requests
    // to one home still serialize there. The envelopes are kept around so a
    // timed-out await can resend the same req_id.
    std::vector<std::unique_ptr<NodeHost::Waiter>> waiters;
    waiters.reserve(calls.size());
    std::vector<proto::Envelope> envs;
    envs.reserve(calls.size());
    std::vector<NodeId> dsts;
    dsts.reserve(calls.size());
    Status first_error = Status::Ok();
    for (auto& [dst, body] : calls) {
      auto waiter = std::make_unique<NodeHost::Waiter>();
      proto::Envelope env;
      env.req_id = host_->NextReqId();
      env.src_node = host_->self();
      env.body = std::move(body);
      const NodeId routed = host_->ResolveDst(dst);
      if (host_->core().replication_on()) {
        env.epoch = host_->core().epoch();
      }
      host_->RegisterWaiter(env.req_id, waiter.get(), routed);
      const Status sent = host_->SendEnvelope(routed, env);
      if (!sent.ok()) {
        if (host_->core().replication_on() &&
            sent.code() == ErrorCode::kUnavailable) {
          // Dead destination under replication: fail the waiter so the
          // await loop below runs its failover resend instead of giving up.
          if (host_->DropWaiter(env.req_id)) {
            DeliverFailure(waiter.get(), sent);
          }
        } else if (host_->DropWaiter(env.req_id)) {
          first_error = sent;
          break;
        }
        // Otherwise another thread claimed the entry concurrently (a response
        // or a dead-node sweep); the waiter will be answered below.
      }
      envs.push_back(std::move(env));
      dsts.push_back(dst);
      waiters.push_back(std::move(waiter));
    }
    // Await everything that was sent — even when failing, so no late
    // response targets a dead waiter frame.
    std::vector<proto::Envelope> out;
    out.reserve(waiters.size());
    for (size_t i = 0; i < waiters.size(); ++i) {
      auto resp =
          host_->AwaitWithRetry(dsts[i], envs[i], waiters[i].get(), policy);
      if (!resp.ok()) {
        if (first_error.ok()) first_error = resp.status();
        continue;
      }
      out.push_back(std::move(*resp));
    }
    if (!first_error.ok()) return first_error;
    return out;
  }

  Status Post(NodeId dst, proto::Body body) override {
    proto::Envelope env;
    env.req_id = 0;
    env.src_node = host_->self();
    env.body = std::move(body);
    if (host_->core().replication_on()) {
      env.epoch = host_->core().epoch();
    }
    return host_->SendEnvelope(host_->ResolveDst(dst), env);
  }

 private:
  NodeHost* host_;
};

// Task implementation handed to application code.
class HostTask final : public Task {
 public:
  HostTask(NodeHost* host, Gpid gpid, std::vector<std::uint8_t> arg)
      : host_(host),
        gpid_(gpid),
        arg_(std::move(arg)),
        rpc_(host),
        client_(&rpc_, &host->core()) {}

  NodeId node() const override { return host_->self(); }
  Gpid gpid() const override { return gpid_; }
  int num_nodes() const override { return host_->core().num_nodes(); }
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
    (void)work_units;  // real work already took real time on this backend
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
  NodeHost* host_;
  Gpid gpid_;
  std::vector<std::uint8_t> arg_;
  std::vector<std::uint8_t> result_;
  HostRpc rpc_;
  TaskClient client_;
};

}  // namespace

namespace {

KernelOptions MakeKernelOptions(const NodeHost::Options& options,
                                net::Endpoint* endpoint) {
  KernelOptions kopts = KernelOptionsFor(options, options.lossy);
  TaskRegistry* registry = options.registry;
  kopts.has_task = [registry](const std::string& name) {
    return registry->Has(name);
  };
  kopts.task_idempotent = [registry](const std::string& name) {
    return registry->IsIdempotent(name);
  };
  // Scheduler latency accounting in real microseconds (monotonic).
  kopts.now_us = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  // Endpoint-level byte counts (serialized frames at the fabric boundary)
  // ride along in stats snapshots as a cross-check of the kernel's own
  // net.* accounting.
  kopts.augment_stats = [endpoint](MetricsSnapshot* snap) {
    const net::WireCounts w = endpoint->wire_counts();
    if (w.msgs_sent != 0) (*snap)["wire.msgs_sent"] = w.msgs_sent;
    if (w.bytes_sent != 0) (*snap)["wire.bytes_sent"] = w.bytes_sent;
    if (w.msgs_recv != 0) (*snap)["wire.msgs_recv"] = w.msgs_recv;
    if (w.bytes_recv != 0) (*snap)["wire.bytes_recv"] = w.bytes_recv;
  };
  return kopts;
}

recovery::Membership::Options MakeMembershipOptions(
    const NodeHost::Options& options) {
  recovery::Membership::Options mopts;
  mopts.period_ms = options.heartbeat.EffectivePeriodMs(options.lossy);
  mopts.timeout_ms = options.heartbeat.EffectiveTimeoutMs(mopts.period_ms);
  mopts.drain_requested = options.drain_requested;
  return mopts;
}

}  // namespace

NodeHost::NodeHost(net::Endpoint* endpoint, int num_nodes, Options options)
    : endpoint_(endpoint),
      options_(std::move(options)),
      core_(endpoint->self(), num_nodes,
            MakeKernelOptions(options_, endpoint)),
      membership_(&core_, MakeMembershipOptions(options_), &core_mu_) {
  DSE_CHECK(options_.registry != nullptr);
  rpc_timeouts_ = core_.metrics().counter("rpc.timeout");
  rpc_retries_ = core_.metrics().counter("rpc.retry");
  inline_resps_ = core_.metrics().counter("rpc.inline_resp");
}

NodeHost::~NodeHost() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // Waits out a sink call in progress; none starts after this.
  endpoint_->SetInlineSink(nullptr);
  endpoint_->Shutdown();
  if (service_.joinable()) service_.join();
  WaitTasksDrained();
  std::lock_guard<std::mutex> lock(tasks_mu_);
  for (auto& t : task_threads_) {
    if (t.joinable()) t.join();
  }
}

std::int64_t NodeHost::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NodeHost::Start() {
  DSE_CHECK_MSG(!service_.joinable(), "NodeHost started twice");
  membership_.Start(NowMs());
  endpoint_->SetInlineSink(
      [this](const net::Delivery& d) { return CompleteInline(d); });
  service_ = std::thread([this] {
    ServiceLoop();
    // Nothing will answer a pending call once the service loop is gone;
    // release every blocked task with a terminal status instead of hanging.
    FailAllPending(Unavailable("node service loop exited"));
    {
      std::lock_guard<std::mutex> lock(service_exit_mu_);
      service_exited_ = true;
    }
    service_exit_cv_.notify_all();
  });
  const int period_ms = membership_.period_ms();
  if (period_ms > 0 && core_.num_nodes() > 1) {
    heartbeat_ = std::thread([this, period_ms] { HeartbeatLoop(period_ms); });
  }
}

void NodeHost::HeartbeatLoop(int period_ms) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                      [&] { return hb_stop_; });
      if (hb_stop_) return;
    }
    Perform(membership_.Tick(NowMs()));
  }
}

void NodeHost::AdminDrain(NodeId node) { Perform(membership_.Drain(node)); }

std::uint64_t NodeHost::NextReqId() {
  return next_req_id_.fetch_add(1, std::memory_order_relaxed);
}

void NodeHost::RegisterWaiter(std::uint64_t req_id, Waiter* waiter,
                              NodeId dst) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.emplace(req_id, Pending{waiter, dst});
}

bool NodeHost::DropWaiter(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.erase(req_id) > 0;
}

void NodeHost::FailAllPending(const Status& error) {
  std::vector<Waiter*> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    victims.reserve(pending_.size());
    for (const auto& [id, p] : pending_) victims.push_back(p.waiter);
    pending_.clear();
  }
  for (Waiter* w : victims) DeliverFailure(w, error);
}

void NodeHost::FailPendingTo(NodeId dst, const Status& error) {
  std::vector<Waiter*> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.dst == dst) {
        victims.push_back(it->second.waiter);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Waiter* w : victims) DeliverFailure(w, error);
}

Result<proto::Envelope> NodeHost::FailCall(std::uint64_t req_id,
                                           Waiter* waiter,
                                           const Status& error) {
  if (DropWaiter(req_id)) return error;
  // Another thread claimed the entry first: a response or failure is in
  // flight to this waiter and must be consumed (the waiter is stack memory).
  return TakeOutcome(waiter);
}

Result<proto::Envelope> NodeHost::CallAndAwait(NodeId dst,
                                               proto::Envelope env,
                                               const CallPolicy& policy) {
  Waiter waiter;
  const NodeId routed = ResolveDst(dst);
  if (core_.replication_on()) env.epoch = core_.epoch();
  RegisterWaiter(env.req_id, &waiter, routed);
  const Status sent = SendEnvelope(routed, env);
  if (!sent.ok()) {
    if (core_.replication_on() && sent.code() == ErrorCode::kUnavailable) {
      // Dead destination under replication: fail the waiter so
      // AwaitWithRetry runs its failover resend instead of giving up.
      if (DropWaiter(env.req_id)) DeliverFailure(&waiter, sent);
    } else {
      return FailCall(env.req_id, &waiter, sent);
    }
  }
  return AwaitWithRetry(dst, env, &waiter, policy);
}

Status NodeHost::FailoverResend(NodeId natural, proto::Envelope* env,
                                Waiter* waiter) {
  // Brief pause: evictions propagate on heartbeat cadence; resending
  // full-speed would just bounce again.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(recovery::kFailoverPauseMs));
  {
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->ready = false;
    waiter->error = Status::Ok();
    waiter->resp = proto::Envelope{};
  }
  const NodeId routed = ResolveDst(natural);
  env->epoch = core_.epoch();
  RegisterWaiter(env->req_id, waiter, routed);
  const Status sent = SendEnvelope(routed, *env);
  if (sent.ok()) return Status::Ok();
  if (!DropWaiter(env->req_id)) return Status::Ok();  // answer raced in
  if (sent.code() == ErrorCode::kUnavailable) {
    // Destination (still) dead and not yet re-routed: fail the waiter so
    // the caller's failover loop comes around after another pause.
    DeliverFailure(waiter, sent);
    return Status::Ok();
  }
  return sent;
}

Result<proto::Envelope> NodeHost::AwaitWithRetry(NodeId dst,
                                                 const proto::Envelope& env_in,
                                                 Waiter* waiter,
                                                 const CallPolicy& policy) {
  proto::Envelope env = env_in;
  const int attempts = std::max(1, policy.max_attempts);
  const bool bounded = policy.deadline_ms > 0;
  // Failover retries (dead destination, epoch bounce) do not consume
  // attempts — they wait out the eviction — but stay bounded so a cluster
  // that never converges still surfaces an error.
  int failovers = 0;
  for (int attempt = 1;;) {
    bool ready = false;
    {
      std::unique_lock<std::mutex> lock(waiter->mu);
      if (bounded) {
        waiter->cv.wait_for(lock,
                            std::chrono::milliseconds(policy.deadline_ms),
                            [&] { return waiter->ready; });
      } else {
        waiter->cv.wait(lock, [&] { return waiter->ready; });
      }
      ready = waiter->ready;
    }
    if (ready) {
      Result<proto::Envelope> outcome = TakeOutcome(waiter);
      const bool can_failover =
          core_.replication_on() && failovers < recovery::kMaxFailovers;
      if (!outcome.ok()) {
        if (can_failover &&
            outcome.status().code() == ErrorCode::kUnavailable) {
          ++failovers;
          if (const Status s = FailoverResend(dst, &env, waiter); !s.ok()) {
            return s;
          }
          continue;
        }
        return outcome;
      }
      if (const auto* rr = std::get_if<proto::RetryResp>(&outcome->body)) {
        if (!can_failover) {
          return Unavailable("epoch bounce with no failover budget left");
        }
        Perform(membership_.OnRetrySignal(outcome->src_node, *rr));
        ++failovers;
        if (const Status s = FailoverResend(dst, &env, waiter); !s.ok()) {
          return s;
        }
        continue;
      }
      return outcome;
    }
    // This attempt's deadline expired with no answer.
    rpc_timeouts_->Add();
    if (attempt >= attempts) {
      if (DropWaiter(env.req_id)) {
        return Timeout("rpc to node " + std::to_string(dst) +
                       " timed out after " + std::to_string(attempts) +
                       " attempt(s)");
      }
      // Claimed concurrently: the answer is on its way — take it.
      return TakeOutcome(waiter);
    }
    ++attempt;
    rpc_retries_->Add();
    // Base 0: the deadline alone paces the resends.
    const int base = policy.backoff_base_ms;
    if (base > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(1000, base << std::min(attempt - 1, 10))));
    }
    // Resend the SAME req_id; the home's at-most-once cache absorbs the
    // duplicate if the original made it and only the response was lost.
    // Re-resolve the destination: the home may have failed over since.
    const NodeId routed = ResolveDst(dst);
    if (core_.replication_on()) env.epoch = core_.epoch();
    const Status sent = SendEnvelope(routed, env);
    if (!sent.ok()) {
      if (core_.replication_on() &&
          sent.code() == ErrorCode::kUnavailable &&
          failovers < recovery::kMaxFailovers) {
        // Destination died between resolve and send; keep waiting — the
        // eviction sweep fails the pending call, which re-enters the
        // failover path above.
        ++failovers;
        continue;
      }
      return FailCall(env.req_id, waiter, sent);
    }
  }
}

std::vector<std::uint8_t> NodeHost::RunLocalTask(
    const std::string& name, std::vector<std::uint8_t> arg) {
  DSE_CHECK_MSG(options_.registry->Has(name), "task not registered");
  Gpid gpid;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    gpid = core_.RegisterLocalTask(name);
  }
  std::vector<std::uint8_t> result;
  {
    HostTask task(this, gpid, std::move(arg));
    options_.registry->Get(name)(task);
    result = task.TakeResult();
  }
  FinishLocalTask(gpid, result);
  return result;
}

void NodeHost::FinishLocalTask(Gpid gpid, std::vector<std::uint8_t> result) {
  KernelCore::Actions actions;
  {
    std::lock_guard<std::mutex> lock(core_mu_);
    actions = core_.OnLocalTaskExit(gpid, std::move(result));
  }
  Perform(std::move(actions));
}

void NodeHost::WaitTasksDrained() {
  std::unique_lock<std::mutex> lock(tasks_mu_);
  tasks_cv_.wait(lock, [&] { return live_tasks_ == 0; });
  for (auto& t : task_threads_) {
    if (t.joinable()) t.join();
  }
  task_threads_.clear();
}

void NodeHost::WaitServiceExit() {
  std::unique_lock<std::mutex> lock(service_exit_mu_);
  service_exit_cv_.wait(lock, [&] { return service_exited_; });
}

void NodeHost::BroadcastShutdown() {
  for (NodeId n = 0; n < core_.num_nodes(); ++n) {
    proto::Envelope env;
    env.req_id = 0;
    env.src_node = self();
    env.body = proto::Shutdown{};
    const Status s = SendEnvelope(n, env);
    if (!s.ok()) {
      DSE_LOG(kWarn) << "shutdown broadcast to node " << n
                     << " failed: " << s.ToString();
    }
  }
}

Status NodeHost::SendEnvelope(NodeId dst, const proto::Envelope& env) {
  // Fail fast instead of queueing onto a corpse — except for the control
  // and recovery frames that have to flow *toward* a suspected or evicted
  // peer for the cluster to heal: shutdown teardown, liveness probes, the
  // rejoin-triggering re-announce, the join protocol and state transfers.
  if (PeerDead(dst)) {
    switch (env.type()) {
      case proto::MsgType::kShutdown:
      case proto::MsgType::kHeartbeat:
      case proto::MsgType::kEvictReq:
      case proto::MsgType::kNodeJoinReq:
      case proto::MsgType::kNodeJoinResp:
      case proto::MsgType::kStateChunkReq:
      case proto::MsgType::kStateChunkResp:
      case proto::MsgType::kDrainReq:
      case proto::MsgType::kDrainResp:
        break;
      default:
        return Unavailable("node " + std::to_string(dst) + " is dead");
    }
  }
  std::vector<std::uint8_t> payload = proto::Encode(env);
  const std::uint64_t bytes = payload.size();
  const Status s = endpoint_->Send(dst, std::move(payload));
  if (s.ok()) {
    core_.CountSent(env.type());
    core_.CountWireSent(bytes);
    if (membership_.period_ms() > 0) membership_.NoteSent(dst, NowMs());
  }
  return s;
}

void NodeHost::Perform(KernelCore::Actions actions) {
  for (auto& line : actions.console) {
    if (options_.console_sink) options_.console_sink(std::move(line));
  }
  for (auto& out : actions.out) {
    const Status s = SendEnvelope(out.dst, out.env);
    if (!s.ok()) {
      DSE_LOG(kWarn) << "node " << self() << " send to " << out.dst
                     << " failed: " << s.ToString();
    }
  }
  for (auto& st : actions.start) {
    StartTaskThread(std::move(st));
  }
}

void NodeHost::Perform(recovery::Membership::Actions actions) {
  for (const NodeId node : actions.dead) {
    FailPendingTo(node, Unavailable("node " + std::to_string(node) +
                                    " declared dead"));
  }
  Perform(std::move(actions.kernel));
}

void NodeHost::StartTaskThread(KernelCore::StartTask st) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    ++live_tasks_;
  }
  std::thread thread([this, st = std::move(st)]() mutable {
    {
      std::vector<std::uint8_t> result;
      {
        HostTask task(this, st.gpid, std::move(st.arg));
        // Spawn validation runs before a StartTask is emitted, so a missing
        // entry here means the registry changed underneath us; degrade to an
        // empty result instead of killing the node.
        if (TaskFn fn = options_.registry->TryGet(st.task_name)) {
          fn(task);
        } else {
          DSE_LOG(kWarn) << "node " << self() << ": task '" << st.task_name
                         << "' vanished from the registry; finishing empty";
        }
        result = task.TakeResult();
      }
      // The task (and its client, whose destructor flushes any combined
      // writes) is gone before the result becomes joinable: a joiner must
      // never observe the result ahead of the task's last writes.
      FinishLocalTask(st.gpid, std::move(result));
    }
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      --live_tasks_;
    }
    tasks_cv_.notify_all();
  });
  std::lock_guard<std::mutex> lock(tasks_mu_);
  task_threads_.push_back(std::move(thread));
}

bool NodeHost::CompleteInline(const net::Delivery& delivery) {
  if (!proto::IsClientResponseFrame(delivery.payload)) return false;
  auto decoded = proto::Decode(delivery.payload);
  if (!decoded.ok()) return false;
  // A frame from a suspected peer may revoke the suspicion, which the
  // service loop does.
  const NodeId src = decoded->src_node;
  if (src < 0 || src >= core_.num_nodes() || membership_.Suspected(src)) {
    return false;
  }
  Waiter* waiter = ClaimWaiter(decoded->req_id);
  if (waiter == nullptr) return false;
  NoteReceived(*decoded, delivery.payload.size(), NowMs());
  inline_resps_->Add();
  CompleteResponse(std::move(*decoded), waiter);
  return true;
}

void NodeHost::NoteReceived(const proto::Envelope& env,
                            std::uint64_t wire_bytes, std::int64_t now_ms) {
  core_.CountRecv(env.type());
  core_.CountWireRecv(wire_bytes);
  membership_.NoteHeard(env.src_node, now_ms);
}

NodeHost::Waiter* NodeHost::ClaimWaiter(std::uint64_t req_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  const auto it = pending_.find(req_id);
  if (it == pending_.end()) return nullptr;
  Waiter* waiter = it->second.waiter;
  pending_.erase(it);
  return waiter;
}

void NodeHost::CompleteResponse(proto::Envelope env, Waiter* waiter) {
  // Cache fills happen before the waiting task can observe the response,
  // and after every earlier frame from the same home (the endpoint's
  // per-source gate) — see kernel_core.h. A response stamped with an older
  // membership epoch (served before a failover, or replayed from a shadow
  // ledger after promotion) still answers the call, but its block is not
  // cached: the promoted home's copyset does not track that copy, so no
  // future write could ever invalidate it.
  if (env.epoch == core_.epoch()) {
    if (auto* rr = std::get_if<proto::ReadResp>(&env.body);
        rr != nullptr && rr->block_fetch) {
      core_.CacheInsert(rr->addr, rr->data);
    } else if (auto* br = std::get_if<proto::BatchResp>(&env.body)) {
      for (const proto::BatchItemResp& item : br->items) {
        if (item.block_fetch) core_.CacheInsert(item.addr, item.data);
      }
    }
  }
  if (waiter == nullptr) {
    // Expected under faults: the duplicate of a dup'd response, or an
    // answer arriving after its call was failed (timeout/dead peer).
    core_.metrics().counter("rpc.orphan_resp")->Add();
    DSE_LOG(kDebug) << "node " << self() << ": orphan response req_id "
                    << env.req_id;
    return;
  }
  DeliverResponse(waiter, std::move(env));
}

void NodeHost::ServiceLoop() {
  while (auto delivery = endpoint_->Recv()) {
    auto decoded = proto::Decode(delivery->payload);
    if (!decoded.ok()) {
      DSE_LOG(kWarn) << "node " << self() << ": dropping malformed message: "
                     << decoded.status().ToString();
      continue;
    }
    proto::Envelope env = std::move(*decoded);
    const std::int64_t now = NowMs();
    NoteReceived(env, delivery->payload.size(), now);
    // Membership traffic (heartbeats, evictions) stops here; a frame from a
    // suspected member revokes the suspicion and goes on.
    recovery::Membership::Actions membership = membership_.OnFrame(env, now);
    const bool consumed = membership.consumed;
    Perform(std::move(membership));
    if (consumed) continue;

    if (proto::IsClientResponse(env.type())) {
      Waiter* waiter = ClaimWaiter(env.req_id);
      CompleteResponse(std::move(env), waiter);
      continue;
    }

    KernelCore::Actions actions;
    {
      std::lock_guard<std::mutex> lock(core_mu_);
      actions = core_.Handle(env);
    }
    if (actions.shutdown) return;
    Perform(std::move(actions));
  }
}

}  // namespace dse
