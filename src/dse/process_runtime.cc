#include "dse/process_runtime.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "dse/proto/messages.h"

namespace dse {

Result<std::unique_ptr<ProcessRuntime>> ProcessRuntime::Create(
    NodeId self, std::vector<net::TcpNodeAddr> nodes,
    ProcessOptions options) {
  const bool faulty = options.fault_plan.enabled();
  DSE_RETURN_IF_ERROR(CheckLossyDeadline(options, faulty));
  const int n = static_cast<int>(nodes.size());
  auto endpoint = net::TcpFabricEndpoint::Create(self, std::move(nodes),
                                                 options.connect_timeout_ms);
  if (!endpoint.ok()) return endpoint.status();

  std::unique_ptr<ProcessRuntime> rt(new ProcessRuntime);
  rt->endpoint_ = std::move(*endpoint);

  net::Endpoint* ep = rt->endpoint_.get();
  if (faulty) {
    rt->fault_ = std::make_unique<net::FaultInjector>(options.fault_plan);
    rt->faulty_endpoint_ = std::make_unique<net::FaultyEndpoint>(
        ep, rt->fault_.get(), proto::IsShutdownFrame);
    ep = rt->faulty_endpoint_.get();
  }

  NodeHost::Options hopts;
  static_cast<ClusterOptions&>(hopts) = options;
  hopts.registry = &rt->registry_;
  hopts.lossy = faulty;
  hopts.heartbeat = options.heartbeat;
  if (self == 0) {
    ProcessRuntime* raw = rt.get();
    hopts.console_sink = [raw](std::string line) {
      // SSI console: print immediately AND retain for the caller.
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
      raw->console_.push_back(std::move(line));
    };
  }
  rt->host_ = std::make_unique<NodeHost>(ep, n, std::move(hopts));
  // The service loop does NOT start here: peers may send spawn requests the
  // moment the mesh is up, and the caller has not registered its task
  // functions yet. Inbound messages queue in the endpoint until
  // RunMainAndShutdown / ServeUntilShutdown starts the kernel.
  return rt;
}

ProcessRuntime::~ProcessRuntime() {
  if (endpoint_ != nullptr) endpoint_->Shutdown();
  host_.reset();  // joins service + task threads before the endpoint dies
}

std::vector<std::uint8_t> ProcessRuntime::RunMainAndShutdown(
    const std::string& main_name, std::vector<std::uint8_t> arg) {
  DSE_CHECK_MSG(self() == 0, "main runs on node 0");
  host_->Start();
  std::vector<std::uint8_t> result =
      host_->RunLocalTask(main_name, std::move(arg));
  host_->WaitTasksDrained();
  host_->BroadcastShutdown();
  host_->WaitServiceExit();
  return result;
}

void ProcessRuntime::ServeUntilShutdown() {
  host_->Start();
  host_->WaitServiceExit();
  host_->WaitTasksDrained();
}

}  // namespace dse
