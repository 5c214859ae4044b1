// dse_run's flag validation, pinned: every rejection exits 2 with exactly
// this stderr text. Each case runs the real binary; a plan, when given, is
// written to a temporary file whose path replaces "PLAN" in the arguments.
// Every rejection happens before a workload starts, so each case takes
// milliseconds.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct Rejection {
  const char* name;
  const char* args;  // after the binary; "PLAN" is the plan file's path
  const char* plan;  // fault-plan file contents, or nullptr for none
  const char* stderr_text;
};

constexpr char kRpcDeadlineZero[] =
    "--fault-plan requires a finite --rpc-deadline-ms (> 0): lost frames "
    "would hang the run forever\n";
constexpr char kFabricKnobs[] =
    "--topology/--link-bw/--link-lat/--vc configure the routed fabric; they "
    "require --medium fabric\n";

const Rejection kRejections[] = {
    // Argument shape.
    {"NoApp", "", nullptr,
     "usage: dse_run <gauss|dct|othello|knight|serving> [--mode "
     "threaded|sim] [--platform sunos|aix|linux|solaris] [--procs N] "
     "[--cache] [--batch] [--prefetch K] [--write-combine] [--legacy] "
     "[--medium bus|switched|fabric] [--topology SPEC] [--link-bw MBPS] "
     "[--link-lat US] [--vc N] [--fault-plan FILE] [--rpc-deadline-ms N] "
     "[--replication 0|1] [--restart-tasks] [--min-quorum N] [--rejoin 0|1] "
     "[--rolling] [--stats] [--stats-json [FILE]] [--stats-csv [FILE]] "
     "[--ps] [--list-tasks] [app flags]\n"},
    {"UnknownApp", "matmul", nullptr,
     "unknown app 'matmul' (gauss|dct|othello|knight|serving)\n"},
    {"StrayArgument", "gauss extra", nullptr,
     "unexpected argument 'extra'\n"},
    {"UnknownFlag", "knight --bogus 1", nullptr,
     "unknown flag '--bogus'\n"
     "known flags: --mode --platform --procs --cache --legacy --trace "
     "--machines --stats --stats-json --stats-csv --ps --list-tasks --help "
     "--batch --prefetch --write-combine --fault-plan --rpc-deadline-ms "
     "--replication --restart-tasks --min-quorum --rejoin --rolling --medium "
     "--topology --link-bw --link-lat --vc --board --start --jobs\n"},
    {"UnknownMode", "knight --mode cloud", nullptr,
     "unknown mode 'cloud' (threaded|sim)\n"},
    {"UnknownPlatform", "knight --mode sim --platform vax", nullptr,
     "unknown platform 'vax'; known platforms: sunos aix linux solaris\n"},
    // Integer and enum knobs.
    {"ProcsZero", "gauss --procs 0", nullptr,
     "--procs must be >= 1 (got 0)\n"},
    {"PrefetchNegative", "gauss --prefetch -1", nullptr,
     "--prefetch must be >= 0 (got -1)\n"},
    {"ProcsTrailingText", "gauss --mode sim --procs 3x", nullptr,
     "--procs must be an integer (got '3x')\n"},
    {"ProcsMissing", "gauss --procs", nullptr,
     "--procs must be an integer (got '')\n"},
    {"PrefetchTrailingText", "gauss --prefetch 2x", nullptr,
     "--prefetch must be an integer (got '2x')\n"},
    {"AppIntNotInteger", "gauss --n abc", nullptr,
     "--n must be an integer (got 'abc')\n"},
    {"AppIntOverflow", "gauss --n 99999999999", nullptr,
     "--n must be an integer (got '99999999999')\n"},
    {"SlotsNotInteger", "serving --slots two", nullptr,
     "--slots must be an integer (got 'two')\n"},
    {"AppDoubleNotNumber", "dct --keep half", nullptr,
     "--keep must be a number (got 'half')\n"},
    {"RpcDeadlineNotInteger", "gauss --rpc-deadline-ms soon", nullptr,
     "--rpc-deadline-ms must be an integer >= 0 (got 'soon')\n"},
    {"RpcDeadlineTrailingText", "gauss --rpc-deadline-ms 10ms", nullptr,
     "--rpc-deadline-ms must be an integer >= 0 (got '10ms')\n"},
    {"RpcDeadlineNegative", "gauss --rpc-deadline-ms -5", nullptr,
     "--rpc-deadline-ms must be an integer >= 0 (got '-5')\n"},
    {"RpcDeadlineMissing", "gauss --rpc-deadline-ms", nullptr,
     "--rpc-deadline-ms must be an integer >= 0 (got '')\n"},
    {"RpcDeadlineZeroWithPlan", "gauss --rpc-deadline-ms 0 --fault-plan PLAN",
     "drop 0.1\n", kRpcDeadlineZero},
    {"FaultPlanMissingFile", "gauss --fault-plan", nullptr,
     "--fault-plan requires a file argument\n"},
    {"ReplicationTwo", "gauss --replication 2", nullptr,
     "--replication must be 0 or 1 (got '2')\n"},
    {"ReplicationNotInteger", "gauss --replication one", nullptr,
     "--replication must be 0 or 1 (got 'one')\n"},
    {"RestartTasksWithoutReplication", "gauss --restart-tasks", nullptr,
     "--restart-tasks requires --replication 1: without replication nodes "
     "are never evicted, so a task on a dead node is waited on, not "
     "restarted\n"},
    {"MinQuorumAboveProcs", "gauss --procs 4 --replication 1 --min-quorum 5",
     nullptr,
     "--min-quorum must be an integer in [0, 4] (got '5'; 0 = strict "
     "majority of the current membership)\n"},
    {"MinQuorumNotInteger", "gauss --replication 1 --min-quorum most",
     nullptr,
     "--min-quorum must be an integer in [0, 4] (got 'most'; 0 = strict "
     "majority of the current membership)\n"},
    {"MinQuorumWithoutReplication", "gauss --min-quorum 2", nullptr,
     "--min-quorum requires --replication 1: without replication there are "
     "no evictions to guard\n"},
    {"RejoinNotBoolean", "gauss --replication 1 --rejoin yes", nullptr,
     "--rejoin must be 0 or 1 (got 'yes')\n"},
    {"RejoinWithoutReplication", "gauss --rejoin 1", nullptr,
     "--rejoin requires --replication 1: without replication nodes are "
     "never evicted, so there is nothing to rejoin\n"},
    {"SchedulerSlotsZero", "serving --slots 0", nullptr,
     "--slots/--quota/--queue-cap must all be >= 1\n"},
    // Interconnect medium and routed-fabric knobs.
    {"MediumUnknown", "gauss --mode sim --medium token", nullptr,
     "--medium must be one of bus|switched|fabric (got 'token')\n"},
    {"SwitchedIsUnknown", "othello --mode sim --switched", nullptr,
     "unknown flag '--switched'\n"
     "known flags: --mode --platform --procs --cache --legacy --trace "
     "--machines --stats --stats-json --stats-csv --ps --list-tasks --help "
     "--batch --prefetch --write-combine --fault-plan --rpc-deadline-ms "
     "--replication --restart-tasks --min-quorum --rejoin --rolling --medium "
     "--topology --link-bw --link-lat --vc --depth --tasks\n"},
    {"TopologyWithoutFabric", "gauss --mode sim --topology ring:6", nullptr,
     kFabricKnobs},
    {"VcWithoutFabric", "gauss --mode sim --medium switched --vc 2", nullptr,
     kFabricKnobs},
    {"FlinkWithoutFabric", "gauss --mode sim --fault-plan PLAN",
     "flink 0 1 after 10\n",
     "--fault-plan has flink directives (fabric link severs); they require "
     "--medium fabric\n"},
    {"LinkBwZero", "gauss --mode sim --medium fabric --link-bw 0", nullptr,
     "--link-bw must be a positive Mb/s value (got '0')\n"},
    {"LinkBwNotNumber", "gauss --mode sim --medium fabric --link-bw fast",
     nullptr, "--link-bw must be a positive Mb/s value (got 'fast')\n"},
    {"LinkLatNegative", "gauss --mode sim --medium fabric --link-lat -1",
     nullptr, "--link-lat must be a microsecond value >= 0 (got '-1')\n"},
    {"LinkLatNotNumber", "gauss --mode sim --medium fabric --link-lat 1us",
     nullptr, "--link-lat must be a microsecond value >= 0 (got '1us')\n"},
    {"VcZero", "gauss --mode sim --medium fabric --vc 0", nullptr,
     "--vc must be an integer in [1, 16] (got '0')\n"},
    {"VcAboveSixteen", "gauss --mode sim --medium fabric --vc 17", nullptr,
     "--vc must be an integer in [1, 16] (got '17')\n"},
    {"VcNotInteger", "gauss --mode sim --medium fabric --vc two", nullptr,
     "--vc must be an integer in [1, 16] (got 'two')\n"},
    {"TopologyUnparsable", "gauss --mode sim --medium fabric --topology blob",
     nullptr,
     "--topology blob: INVALID_ARGUMENT: bad topology 'blob': unknown "
     "topology kind 'blob' (grammar: ring:N | mesh:AxB | torus:AxB | "
     "fattree:K | auto)\n"},
    {"RingNeedsTwoVcs",
     "gauss --mode sim --medium fabric --topology ring:6 --vc 1", nullptr,
     "--topology ring:6 needs --vc >= 2: ring/torus wraparound links switch "
     "dateline VC classes to stay deadlock-free\n"},
    {"FlinkUnknownRouter",
     "gauss --mode sim --medium fabric --topology ring:6 --fault-plan PLAN",
     "flink 0 9 after 10\n",
     "--fault-plan flink 0 9: topology ring:6 has routers 0..5\n"},
    {"FlinkNoSuchLink",
     "gauss --mode sim --medium fabric --topology ring:6 --fault-plan PLAN",
     "flink 0 3 after 10\n",
     "--fault-plan flink 0 3: topology ring:6 has no link between those "
     "routers (a typo must not silently run fault-free)\n"},
    {"ThreadedWithMedium", "gauss --medium bus", nullptr,
     "--medium and the fabric knobs model simulated interconnects; they "
     "require --mode sim (the threaded runtime uses the real in-process "
     "fabric)\n"},
    // Fault plans whose permanent faults leave no quorum.
    {"KillsBreakMajority", "gauss --procs 3 --replication 1 --fault-plan PLAN",
     "kill 1 at 10\nkill 2 at 20\n",
     "--fault-plan makes the eviction quorum permanently unattainable: its "
     "permanent kills/severs leave no reachable set of majority members, so "
     "every node would park (recovery.quorum_parks) and the run could never "
     "converge \xE2\x80\x94 refuse instead of hanging\n"},
    {"KillBreaksMinQuorum",
     "gauss --procs 4 --replication 1 --min-quorum 4 --fault-plan PLAN",
     "kill 3 at 10\n",
     "--fault-plan makes the eviction quorum permanently unattainable: its "
     "permanent kills/severs leave no reachable set of --min-quorum members, "
     "so every node would park (recovery.quorum_parks) and the run could "
     "never converge \xE2\x80\x94 refuse instead of hanging\n"},
    {"SeversSplitEvenly", "gauss --procs 4 --replication 1 --fault-plan PLAN",
     "sever 0 2 after 0\nsever 0 3 after 0\nsever 1 2 after 0\n"
     "sever 1 3 after 0\n",
     "--fault-plan makes the eviction quorum permanently unattainable: its "
     "permanent kills/severs leave no reachable set of majority members, so "
     "every node would park (recovery.quorum_parks) and the run could never "
     "converge \xE2\x80\x94 refuse instead of hanging\n"},
    {"FlinksSplitFabric",
     "gauss --mode sim --procs 4 --replication 1 --medium fabric "
     "--topology ring:6 --fault-plan PLAN",
     "flink 1 2 after 10\nflink 3 4 after 10\n",
     "--fault-plan makes the eviction quorum permanently unattainable: its "
     "unhealed flink severs partition the fabric so no reachable set of 3 "
     "members remains\n"},
    {"KillsEveryNode", "gauss --procs 2 --fault-plan PLAN",
     "kill 0 at 10\nkill 1 at 20\n",
     "--fault-plan kills all 2 nodes: with no survivor there is no backup to "
     "promote and no coordinator to evict the dead \xE2\x80\x94 the run "
     "cannot produce a result\n"},
    // Planned drains and rolling restarts.
    {"DrainWithoutReplication", "gauss --mode sim --procs 4 --fault-plan PLAN",
     "drain 2 after 200\n",
     "--fault-plan has drain directives; they require --replication 1: "
     "without replication there is no backup to hand a draining node's homes "
     "to\n"},
    {"DrainUnknownNode",
     "gauss --mode sim --procs 4 --replication 1 --fault-plan PLAN",
     "drain 9 after 200\n",
     "--fault-plan drains unknown node 9: this run has nodes 0..3\n"},
    {"DrainNodeZero",
     "gauss --mode sim --procs 4 --replication 1 --fault-plan PLAN",
     "drain 0 after 200\n",
     "--fault-plan drains node 0: the bootstrap coordinator (and scheduler "
     "host) cannot be drained\n"},
    {"DrainAfterKill",
     "gauss --mode sim --procs 4 --replication 1 --fault-plan PLAN",
     "drain 3 after 300\nkill 3 at 100\n",
     "--fault-plan drains node 3 after 300 frames but kills it at 100: a "
     "dead node cannot drain (schedule the kill after the drain to model a "
     "mid-drain crash)\n"},
    {"DrainBreaksQuorum",
     "gauss --mode sim --procs 2 --replication 1 --fault-plan PLAN",
     "drain 1 after 200\n",
     "--fault-plan drain of node 1 would break quorum: the planned eviction "
     "leaves 1 member(s) but committing it needs 2\n"},
    {"RollingThreaded",
     "serving --mode threaded --procs 4 --replication 1 --rejoin 1 --rolling",
     nullptr,
     "--rolling drives the simulator's rolling-restart maintenance cycle; it "
     "requires --mode sim\n"},
    {"RollingWithoutReplication",
     "serving --mode sim --procs 4 --rejoin 1 --rolling", nullptr,
     "--rejoin requires --replication 1: without replication nodes are "
     "never evicted, so there is nothing to rejoin\n"},
    {"RollingWithoutReplicationOrRejoin",
     "serving --mode sim --procs 4 --rolling", nullptr,
     "--rolling requires --replication 1: a rolling restart hands each "
     "node's homes to its backup before the restart\n"},
    {"RollingWithoutRejoin",
     "serving --mode sim --procs 4 --replication 1 --rejoin 0 --rolling",
     nullptr,
     "--rolling requires --rejoin 1: a restarted node must be able to "
     "re-enter the membership\n"},
};

void PrintTo(const Rejection& r, std::ostream* os) { *os << r.name; }

class DseRunRejects : public ::testing::TestWithParam<Rejection> {};

// Runs dse_run with `args`, returning its exit status; its stderr lands in
// *err and its stdout is discarded.
int RunDseRun(std::string args, const char* plan, std::string* err) {
  const std::string dir = ::testing::TempDir();
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string base =
      dir + "/dse_run_cli_" + name.substr(name.find('/') + 1);
  if (plan != nullptr) {
    std::ofstream(base + ".plan") << plan;
    args.replace(args.find("PLAN"), 4, base + ".plan");
  }
  const std::string cmd = std::string(DSE_RUN_PATH) + " " + args +
                          " >/dev/null 2>" + base + ".err";
  const int status = std::system(cmd.c_str());
  {
    std::ifstream in(base + ".err");
    err->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::remove((base + ".err").c_str());
  std::remove((base + ".plan").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_P(DseRunRejects, ExitsTwoWithItsMessage) {
  const Rejection& r = GetParam();
  std::string err;
  EXPECT_EQ(RunDseRun(r.args, r.plan, &err), 2);
  EXPECT_EQ(err, r.stderr_text);
}

INSTANTIATE_TEST_SUITE_P(
    Flags, DseRunRejects, ::testing::ValuesIn(kRejections),
    [](const ::testing::TestParamInfo<Rejection>& info) {
      return std::string(info.param.name);
    });

}  // namespace
