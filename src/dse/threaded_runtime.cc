#include "dse/threaded_runtime.h"

#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "dse/proto/messages.h"
#include "net/inproc.h"

namespace dse {

struct ThreadedRuntime::Fabric {
  explicit Fabric(int n) : inproc(n) {}
  net::InProcFabric inproc;
};

ThreadedRuntime::ThreadedRuntime(ThreadedOptions options)
    : options_(options) {
  DSE_CHECK(options_.num_nodes > 0);
  fabric_ = std::make_unique<Fabric>(options_.num_nodes);
  const bool faulty = options_.fault_plan.enabled();
  DSE_CHECK_OK(CheckLossyDeadline(options_, faulty));
  if (faulty) {
    fault_ = std::make_unique<net::FaultInjector>(options_.fault_plan);
  }
  for (NodeId i = 0; i < options_.num_nodes; ++i) {
    NodeHost::Options hopts;
    static_cast<ClusterOptions&>(hopts) = options_;
    hopts.registry = &registry_;
    hopts.lossy = faulty;
    hopts.heartbeat = options_.heartbeat;
    if (faulty && !options_.fault_plan.drains.empty()) {
      net::FaultInjector* fault = fault_.get();
      // Planned-drain trigger: the coordinator's membership tick polls this
      // and runs the graceful drain once the schedule fires.
      hopts.drain_requested = [fault](NodeId peer) {
        return fault->NodeDraining(peer);
      };
    }
    if (i == 0) {
      hopts.console_sink = [this](std::string line) {
        std::lock_guard<std::mutex> lock(console_mu_);
        console_.push_back(std::move(line));
      };
    }
    net::Endpoint* ep = &fabric_->inproc.endpoint(i);
    if (faulty) {
      faulty_endpoints_.push_back(
          std::make_unique<net::FaultyEndpoint>(ep, fault_.get(),
                                                proto::IsShutdownFrame));
      ep = faulty_endpoints_.back().get();
    }
    hosts_.push_back(std::make_unique<NodeHost>(ep, options_.num_nodes,
                                                std::move(hopts)));
  }
  for (auto& host : hosts_) host->Start();
}

ThreadedRuntime::~ThreadedRuntime() {
  fabric_->inproc.ShutdownAll();
  hosts_.clear();  // joins service + task threads
}

std::vector<std::uint8_t> ThreadedRuntime::RunMain(
    const std::string& main_name, std::vector<std::uint8_t> arg) {
  {
    std::lock_guard<std::mutex> lock(console_mu_);
    console_.clear();
  }
  Stopwatch watch;
  std::vector<std::uint8_t> result =
      hosts_[0]->RunLocalTask(main_name, std::move(arg));
  for (auto& host : hosts_) host->WaitTasksDrained();
  last_run_seconds_ = watch.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(console_mu_);
    last_console_ = console_;
  }
  return result;
}

const KernelStats& ThreadedRuntime::kernel_stats(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().stats();
}

const gmm::GmmHomeStats& ThreadedRuntime::gmm_stats(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().gmm_stats();
}

size_t ThreadedRuntime::cache_block_count(NodeId node) const {
  return hosts_[static_cast<size_t>(node)]->core().cache_block_count();
}

std::vector<MetricsSnapshot> ThreadedRuntime::ClusterStats() const {
  std::vector<MetricsSnapshot> per_node;
  per_node.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    per_node.push_back(host->StatsSnapshot());
  }
  return per_node;
}

std::vector<proto::PsEntry> ThreadedRuntime::Ps() const {
  std::vector<proto::PsEntry> all;
  for (const auto& host : hosts_) {
    auto entries = host->PsSnapshot();
    all.insert(all.end(), entries.begin(), entries.end());
  }
  return all;
}

MetricsSnapshot ThreadedRuntime::FaultCounters() const {
  return fault_ ? fault_->Counters() : MetricsSnapshot{};
}

bool ThreadedRuntime::NodeKilled(NodeId node) const {
  return fault_ && fault_->NodeDead(node);
}

void ThreadedRuntime::KillNode(NodeId node) {
  DSE_CHECK_MSG(fault_ != nullptr, "KillNode requires an active fault plan");
  fault_->KillNow(node);
}

void ThreadedRuntime::DrainNode(NodeId node) {
  hosts_[0]->AdminDrain(node);
}

bool ThreadedRuntime::NodeDraining(NodeId node) {
  return hosts_[0]->NodeDraining(node);
}

std::map<std::string, RunningStats> ThreadedRuntime::ClusterHistograms()
    const {
  std::map<std::string, RunningStats> merged;
  for (const auto& host : hosts_) {
    for (const auto& [name, s] : host->core().metrics().HistogramSnapshot()) {
      merged[name].Merge(s);
    }
  }
  return merged;
}

}  // namespace dse
