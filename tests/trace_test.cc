// Execution tracing: recorder contents, exports, and integration with the
// simulated runtime.
#include <gtest/gtest.h>

#include "dse/sim_runtime.h"
#include "dse/trace.h"
#include "platform/profile.h"

namespace dse::trace {
namespace {

TEST(Recorder, CollectsEvents) {
  Recorder rec;
  rec.Record(Event{sim::Millis(1), EventKind::kSend, 0, 1, "ReadReq", 64});
  rec.Record(Event{sim::Millis(2), EventKind::kHandle, 1, 0, "ReadReq", 64});
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kSend);
  EXPECT_EQ(rec.events()[1].node, 1);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(Recorder, TextHasOneLinePerEvent) {
  Recorder rec;
  rec.Record(Event{0, EventKind::kTaskStart, 2, -1, "main", MakeGpid(2, 1)});
  rec.Record(Event{sim::Seconds(1), EventKind::kSend, 2, 0, "WriteReq", 9});
  const std::string text = rec.ToText();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("task-start"), std::string::npos);
  EXPECT_NE(text.find("WriteReq"), std::string::npos);
  EXPECT_NE(text.find("2.1"), std::string::npos);  // gpid formatting
}

TEST(Recorder, ChromeJsonIsWellFormedish) {
  Recorder rec;
  rec.Record(Event{sim::Micros(5), EventKind::kHandle, 1, 3, "LockReq", 20});
  const std::string json = rec.ToChromeJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 5.000"), std::string::npos);
  EXPECT_NE(json.find("handle LockReq"), std::string::npos);
}

TEST(Recorder, JsonEscapesLabels) {
  Recorder rec;
  rec.Record(Event{0, EventKind::kSend, 0, 0, "bad\"label\\x", 0});
  const std::string json = rec.ToChromeJson();
  EXPECT_NE(json.find("bad\\\"label\\\\x"), std::string::npos);
}

TEST(Recorder, EmptyRecorderIsEmptyArray) {
  Recorder rec;
  EXPECT_EQ(rec.ToChromeJson(), "[\n\n]\n");
  EXPECT_EQ(rec.ToText(), "");
}

TEST(TraceIntegration, SimRunProducesOrderedTimeline) {
  Recorder rec;
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = 3;
  opts.trace = &rec;
  SimRuntime rt(opts);
  rt.registry().Register("worker", [](Task& t) { t.Compute(1000); });
  rt.registry().Register("main", [](Task& t) {
    const Gpid g = t.Spawn("worker", {}, 1).value();
    (void)t.Join(g);
  });
  (void)rt.Run("main");

  ASSERT_GT(rec.size(), 5u);
  // Timestamps never go backwards (the simulator is sequential).
  for (size_t i = 1; i < rec.size(); ++i) {
    EXPECT_GE(rec.events()[i].at, rec.events()[i - 1].at);
  }
  // The timeline contains both task lifetimes and kernel messages.
  int starts = 0, exits = 0, sends = 0, handles = 0, counters = 0;
  for (const Event& e : rec.events()) {
    switch (e.kind) {
      case EventKind::kTaskStart: ++starts; break;
      case EventKind::kTaskExit: ++exits; break;
      case EventKind::kSend: ++sends; break;
      case EventKind::kHandle: ++handles; break;
      case EventKind::kCounter: ++counters; break;
    }
  }
  EXPECT_EQ(starts, 2);  // main + worker
  EXPECT_EQ(exits, 2);
  EXPECT_GT(sends, 0);
  EXPECT_GT(handles, 0);
  EXPECT_GT(counters, 0);  // the final per-node counter samples
  // Spawn appears before the worker's start.
  const auto spawn_send = std::find_if(
      rec.events().begin(), rec.events().end(), [](const Event& e) {
        return e.kind == EventKind::kSend && e.label == "SpawnReq";
      });
  const auto worker_start = std::find_if(
      rec.events().begin(), rec.events().end(), [](const Event& e) {
        return e.kind == EventKind::kTaskStart && e.label == "worker";
      });
  ASSERT_NE(spawn_send, rec.events().end());
  ASSERT_NE(worker_start, rec.events().end());
  EXPECT_LT(spawn_send - rec.events().begin(),
            worker_start - rec.events().begin());
}

TEST(TraceIntegration, TracingDoesNotChangeTiming) {
  auto run = [](Recorder* rec) {
    SimOptions opts;
    opts.profile = platform::SunOsSparc();
    opts.num_processors = 2;
    opts.trace = rec;
    SimRuntime rt(opts);
    rt.registry().Register("main", [](Task& t) {
      auto a = t.AllocOnNode(64, 1).value();
      std::uint8_t buf[64] = {1};
      (void)t.Write(a, buf, sizeof(buf));
      (void)t.Read(a, buf, sizeof(buf));
    });
    return rt.Run("main").virtual_seconds;
  };
  Recorder rec;
  EXPECT_EQ(run(nullptr), run(&rec));
  EXPECT_GT(rec.size(), 0u);
}

TEST(PlatformExtension, SolarisProfileExists) {
  const auto& p = platform::SolarisUltra();
  EXPECT_EQ(p.id, "solaris");
  EXPECT_EQ(platform::ProfileById("solaris").machine, p.machine);
  // Table 1 stays three rows; the extension is separate.
  EXPECT_EQ(platform::AllProfiles().size(), 3u);
  // Between AIX and Linux in CPU speed.
  EXPECT_LT(p.ns_per_work_unit, platform::AixRs6000().ns_per_work_unit);
  EXPECT_GT(p.ns_per_work_unit, platform::LinuxPentiumII().ns_per_work_unit);
}

}  // namespace
}  // namespace dse::trace
