// Example: a producer/consumer pipeline built on the SSI name service,
// global collections and the work-queue pattern.
//
// A producer task publishes a shared table under a cluster-wide name;
// consumer tasks on other nodes discover it *by name* (no addresses passed
// through spawn arguments), claim rows through a GlobalWorkQueue, transform
// them, and deposit results into a second named table. Pure rendezvous:
// after spawning, the main task knows nothing about who works where.
//
//   $ ./pipeline_rendezvous
#include <cstdio>

#include "common/bytes.h"
#include "dse/collections.h"
#include "dse/threaded_runtime.h"

using namespace dse;

namespace {

constexpr int kRows = 64;

void Producer(Task& t) {
  auto input = GlobalVector<std::int64_t>::CreateStriped(t, kRows).value();
  for (int i = 0; i < kRows; ++i) {
    input.Set(t, static_cast<std::uint64_t>(i), i + 1);
  }
  auto output = GlobalVector<std::int64_t>::CreateStriped(t, kRows).value();
  auto queue = GlobalWorkQueue::Create(t, kRows).value();

  // Publish the pipeline's plumbing under well-known names.
  DSE_CHECK_OK(t.PublishName("pipe.input", input.addr()));
  DSE_CHECK_OK(t.PublishName("pipe.output", output.addr()));
  DSE_CHECK_OK(t.PublishName("pipe.queue", queue.counter_addr()));
  t.Print("producer: published " + std::to_string(kRows) + " rows");
}

void Consumer(Task& t) {
  // Discover everything by name — the producer may not even have finished
  // publishing yet; WaitForName spins until the names appear.
  auto input = GlobalVector<std::int64_t>::Attach(
      t.WaitForName("pipe.input"), kRows);
  auto output = GlobalVector<std::int64_t>::Attach(
      t.WaitForName("pipe.output"), kRows);
  auto queue = GlobalWorkQueue::Attach(t.WaitForName("pipe.queue"), kRows);

  std::int64_t mine = 0;
  while (auto row = queue.TryClaim(t)) {
    const auto v = input.Get(t, static_cast<std::uint64_t>(*row));
    output.Set(t, static_cast<std::uint64_t>(*row), v * v);  // transform
    ++mine;
  }
  t.Print("consumer on node " + std::to_string(t.node()) + " transformed " +
          std::to_string(mine) + " rows");
  ByteWriter w;
  w.WriteI64(mine);
  t.SetResult(w.TakeBuffer());
}

void Main(Task& t) {
  // Producer on node 1; consumers everywhere else. Nobody passes addresses.
  const Gpid producer = t.Spawn("producer", {}, 1).value();
  std::vector<Gpid> consumers;
  for (int i = 0; i < t.num_nodes(); ++i) {
    if (i == 1) continue;
    consumers.push_back(t.Spawn("consumer", {}, i).value());
  }
  t.Join(producer).value();
  std::int64_t total = 0;
  for (Gpid g : consumers) {
    const auto res = t.Join(g).value();
    ByteReader r(res.data(), res.size());
    std::int64_t mine = 0;
    DSE_CHECK_OK(r.ReadI64(&mine));
    total += mine;
  }
  DSE_CHECK(total == kRows);

  // Verify the transformation through the named output table.
  auto output = GlobalVector<std::int64_t>::Attach(
      t.LookupName("pipe.output").value(), kRows);
  for (int i = 0; i < kRows; ++i) {
    const auto v = output.Get(t, static_cast<std::uint64_t>(i));
    DSE_CHECK(v == static_cast<std::int64_t>(i + 1) * (i + 1));
  }
  t.Print("pipeline complete: " + std::to_string(kRows) +
          " rows squared across the cluster");
}

}  // namespace

int main() {
  ThreadedOptions options;
  options.num_nodes = 4;
  ThreadedRuntime rt(options);
  rt.registry().Register("producer", Producer);
  rt.registry().Register("consumer", Consumer);
  rt.registry().Register("main", Main);
  rt.RunMain("main");
  for (const auto& line : rt.last_console()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("pipeline_rendezvous: OK\n");
  return 0;
}
