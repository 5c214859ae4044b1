// Quickstart: a four-node DSE cluster in one process.
//
// Shows the core single-system-image programming model: one global memory
// across all nodes, location-transparent process spawning, atomics and
// joins, the routed console, and the cluster-wide process listing.
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "common/bytes.h"
#include "dse/threaded_runtime.h"

using namespace dse;

namespace {

// Each worker squares a slice of a shared global vector in place.
void SquareWorker(Task& t) {
  ByteReader r(t.arg().data(), t.arg().size());
  std::uint64_t vec_addr = 0;
  std::int32_t begin = 0;
  std::int32_t end = 0;
  DSE_CHECK_OK(r.ReadU64(&vec_addr));
  DSE_CHECK_OK(r.ReadI32(&begin));
  DSE_CHECK_OK(r.ReadI32(&end));

  for (std::int32_t i = begin; i < end; ++i) {
    const std::uint64_t slot = vec_addr + static_cast<std::uint64_t>(i) * 8;
    const auto v = t.ReadValue<std::int64_t>(slot);
    t.WriteValue<std::int64_t>(slot, v * v);
  }
  t.Print("worker on node " + std::to_string(t.node()) + " squared [" +
          std::to_string(begin) + ", " + std::to_string(end) + ")");
}

void Main(Task& t) {
  constexpr int kCount = 32;

  // One allocation, striped across every node's global-memory slice.
  auto vec = t.AllocStriped(kCount * 8, /*block_log2=*/6).value();
  for (int i = 0; i < kCount; ++i) {
    t.WriteValue<std::int64_t>(vec + static_cast<std::uint64_t>(i) * 8, i);
  }

  // Spawn one worker per node; the runtime places them round-robin (pass a
  // node hint to pin). Arguments are plain bytes.
  const int n = t.num_nodes();
  std::vector<Gpid> workers;
  for (int w = 0; w < n; ++w) {
    ByteWriter arg;
    arg.WriteU64(vec);
    arg.WriteI32(w * kCount / n);
    arg.WriteI32((w + 1) * kCount / n);
    workers.push_back(t.Spawn("square", arg.TakeBuffer()).value());
  }

  // SSI process table: every DSE process in the cluster, from anywhere.
  for (const auto& entry : t.ClusterPs().value()) {
    t.Print("ps: " + GpidToString(entry.gpid) + " " + entry.task_name +
            (entry.state == 0 ? " RUNNING" : " DONE"));
  }

  for (Gpid g : workers) t.Join(g).value();

  std::int64_t sum = 0;
  for (int i = 0; i < kCount; ++i) {
    sum += t.ReadValue<std::int64_t>(vec + static_cast<std::uint64_t>(i) * 8);
  }
  t.Print("sum of squares 0..31 = " + std::to_string(sum));
  DSE_CHECK(sum == 31 * 32 * 63 / 6);  // Σ i² = n(n+1)(2n+1)/6
  DSE_CHECK_OK(t.Free(vec));
}

}  // namespace

int main() {
  ThreadedOptions options;
  options.num_nodes = 4;
  ThreadedRuntime rt(options);
  rt.registry().Register("square", SquareWorker);
  rt.registry().Register("main", Main);
  rt.RunMain("main");

  for (const std::string& line : rt.last_console()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("quickstart: OK (%.3f ms wall)\n",
              rt.last_run_seconds() * 1e3);
  return 0;
}
