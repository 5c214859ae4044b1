// Remaining coverage: benchlib CSV export, option-combination runs, task
// registry concurrency, fabric misuse.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "apps/gauss/gauss.h"
#include "benchlib/figure.h"
#include "common/bytes.h"
#include "dse/registry.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "dse/trace.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

TEST(BenchlibCsv, WritesHeaderAndRows) {
  benchlib::Figure fig;
  fig.id = "Figure 99";
  fig.xlabel = "processors";
  fig.x = {1, 2, 4};
  fig.series.push_back(benchlib::Series{"N=10", {1.0, 0.5, 0.25}});
  fig.series.push_back(benchlib::Series{"N=20", {2.0, 1.0, 0.5}});

  const std::string path = ::testing::TempDir() + "/fig99.csv";
  ASSERT_TRUE(benchlib::WriteCsv(fig, path).ok());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "processors,N=10,N=20");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,1.000000,2.000000");
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "4,0.250000,0.500000");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(BenchlibCsv, UnwritablePathFails) {
  benchlib::Figure fig;
  fig.x = {1};
  fig.series.push_back(benchlib::Series{"s", {1.0}});
  EXPECT_FALSE(benchlib::WriteCsv(fig, "/nonexistent/dir/f.csv").ok());
}

TEST(OptionCombos, CachePlusPipeliningPlusLegacyAllAtOnce) {
  SimOptions opts;
  opts.profile = platform::AixRs6000();
  opts.num_processors = 5;
  opts.read_cache = true;
  opts.pipelined_transfers = true;
  opts.organization = OrganizationMode::kLegacyTwoProcess;
  opts.medium = MediumKind::kSwitched;
  trace::Recorder recorder;
  opts.trace = &recorder;

  SimRuntime rt(opts);
  apps::gauss::Register(rt.registry());
  apps::gauss::Config c{.n = 60, .sweeps = 5, .workers = 5};
  const SimReport report =
      rt.Run(apps::gauss::kMainTask, apps::gauss::MakeArg(c));

  // Numerics unchanged by any timing option.
  SimOptions plain;
  plain.profile = platform::AixRs6000();
  plain.num_processors = 5;
  SimRuntime plain_rt(plain);
  apps::gauss::Register(plain_rt.registry());
  const SimReport baseline =
      plain_rt.Run(apps::gauss::kMainTask, apps::gauss::MakeArg(c));
  EXPECT_EQ(report.main_result, baseline.main_result);
  EXPECT_GT(recorder.size(), 10u);
}

TEST(Registry, ConcurrentRegisterAndResolve) {
  TaskRegistry registry;
  registry.Register("stable", [](Task&) {});
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int i = 0;
    while (!stop.load()) {
      registry.Register("churn" + std::to_string(i++ % 16), [](Task&) {});
    }
  });
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(registry.Has("stable"));
    (void)registry.Get("stable");
  }
  stop = true;
  mutator.join();
  // On a single-CPU host the mutator may have barely run; the point of the
  // test is that concurrent access neither crashes nor loses entries.
  EXPECT_TRUE(registry.Has("stable"));
}

TEST(Registry, GetUnknownDies) {
  TaskRegistry registry;
  EXPECT_DEATH((void)registry.Get("nope"), "unknown task");
}

TEST(ThreadedOptionsCombos, CachePlusPipelining) {
  ThreadedOptions opts = ThreadedNodes(4);
  opts.read_cache = true;
  opts.pipelined_transfers = true;
  ThreadedRuntime rt(opts);
  apps::gauss::Register(rt.registry());
  apps::gauss::Config c{.n = 48, .sweeps = 6, .workers = 4};
  const auto a = rt.RunMain(apps::gauss::kMainTask, apps::gauss::MakeArg(c));

  ThreadedRuntime plain(ThreadedNodes(4));
  apps::gauss::Register(plain.registry());
  const auto b =
      plain.RunMain(apps::gauss::kMainTask, apps::gauss::MakeArg(c));
  EXPECT_EQ(a, b);
}

TEST(TraceText, GauntletThroughDseRunShapes) {
  // ToText output for a mixed stream parses visually; check the invariants
  // the CLI relies on (line count, ordering marker presence).
  trace::Recorder rec;
  rec.Record(trace::Event{0, trace::EventKind::kTaskStart, 0, -1, "main", 1});
  rec.Record(
      trace::Event{sim::Micros(10), trace::EventKind::kSend, 0, 2, "ReadReq", 21});
  rec.Record(trace::Event{sim::Micros(25), trace::EventKind::kHandle, 2, 0,
                          "ReadReq", 21});
  rec.Record(
      trace::Event{sim::Micros(99), trace::EventKind::kTaskExit, 0, -1, "main", 1});
  const std::string text = rec.ToText();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("-> 2"), std::string::npos);
  EXPECT_NE(text.find("<- 0"), std::string::npos);
}

TEST(Profiles, CostsScaleAcrossAllFour) {
  // Table-1 trio + the Solaris extension stay strictly ordered by CPU rate,
  // and their message costs follow (protocol processing is CPU work).
  const auto& sparc = platform::SunOsSparc();
  const auto& aix = platform::AixRs6000();
  const auto& solaris = platform::SolarisUltra();
  const auto& linux = platform::LinuxPentiumII();
  EXPECT_GT(sparc.ns_per_work_unit, aix.ns_per_work_unit);
  EXPECT_GT(aix.ns_per_work_unit, solaris.ns_per_work_unit);
  EXPECT_GT(solaris.ns_per_work_unit, linux.ns_per_work_unit);
  EXPECT_GT(sparc.send_overhead, aix.send_overhead);
  EXPECT_GT(aix.send_overhead, solaris.send_overhead);
  EXPECT_GT(solaris.send_overhead, linux.send_overhead);
}

}  // namespace
}  // namespace dse
