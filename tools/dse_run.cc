// dse_run — command-line driver for the DSE runtime and its applications.
//
// Runs any of the four evaluation workloads on either the real threaded
// runtime or a simulated 1999 testbed, with every knob exposed:
//
//   dse_run gauss   --n 500 --sweeps 10 --procs 6
//   dse_run dct     --image 128 --block 8 --keep 0.25 --procs 4 --mode sim
//   dse_run othello --depth 6 --procs 8  --mode sim --platform aix
//   dse_run knight  --jobs 32 --procs 6  --mode sim --legacy
//   dse_run serving --tenants 8 --jobs 500 --gap-us 800 --mode sim
//
// The serving app (docs/scheduling.md) runs the multi-tenant job-scheduler
// front door under open-loop traffic and prints the scheduler's final
// ledger (admitted/shed/completed, p50/p99 job latency, utilization).
// Its knobs: --tenants N --jobs N (per tenant) --gap-us N --service-us N
// --gang N --gang-every N --seed N, plus scheduler sizing --slots N
// --quota N --queue-cap N and --round-robin to disable load-aware
// placement.
//
// Common flags:
//   --mode threaded|sim      (default threaded)
//   --platform sunos|aix|linux|solaris  (sim only; default sunos)
//   --procs N                processors / workers (default 4)
//   --cache                  enable the DSM read cache
//   --batch                  coalesce per-home GMM accesses into batch
//                            envelopes (see docs/performance.md)
//   --prefetch K             sequential read-ahead depth (implies --cache)
//   --write-combine          buffer small writes, flush at sync points
//   --legacy                 old two-process DSE organization (sim)
//   --medium bus|switched|fabric  interconnect model (sim; default bus).
//                            bus = the paper's shared CSMA/CD Ethernet,
//                            switched = ideal per-port switch, fabric =
//                            routed multi-hop fabric (docs/interconnect.md)
//   --topology SPEC          fabric topology: ring:N | mesh:AxB | torus:AxB
//                            | fattree:K | auto (default auto; requires
//                            --medium fabric)
//   --link-bw MBPS           fabric per-link bandwidth in Mb/s (default:
//                            the platform profile's LAN bandwidth)
//   --link-lat US            fabric per-hop wire latency in microseconds
//                            (default 1)
//   --vc N                   fabric virtual channels per link (default 2;
//                            ring/torus need >= 2 for dateline deadlock
//                            avoidance)
//   --trace FILE             write a Chrome trace-event JSON timeline (sim);
//                            includes final per-node counter samples
//   --machines a,b,...       heterogeneous cluster: one platform id per
//                            physical machine (sim), e.g. sunos,sunos,linux
//
// Fault injection (threaded + sim; see docs/fault_model.md):
//   --fault-plan FILE        deterministic fault schedule for the fabric;
//                            exit 2 on parse errors
//   --rpc-deadline-ms N      per-attempt data-plane call deadline (N >= 0;
//                            0 = wait forever, invalid with a fault plan)
//
// Recovery (threaded + sim; see docs/recovery.md):
//   --replication K          0 (default) = a dead node's state is lost;
//                            1 = every GMM home is replicated to its ring
//                            successor and evictions fail over to it
//   --restart-tasks          re-spawn idempotent-registered tasks whose
//                            host was evicted (requires --replication 1)
//   --min-quorum N           reachable members required before a locally
//                            detected eviction applies (default 0 = strict
//                            majority of the current membership; requires
//                            --replication 1)
//   --rejoin 0|1             whether evicted nodes may rejoin the cluster
//                            (default 1; requires --replication 1)
//   --rolling                rolling-restart maintenance (sim only): drain,
//                            restart and rejoin every node except node 0 in
//                            sequence while the workload runs (requires
//                            --replication 1 and --rejoin 1)
//
// SSI introspection (the cluster answering like one machine):
//   --stats                  per-node + cluster counter table after the run
//   --stats-json [FILE]      same data as JSON (stdout if FILE omitted)
//   --stats-csv [FILE]       same data as CSV long format
//   --ps                     cluster-wide process listing after the run
//   --list-tasks             print the workload's registered task names
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/dct/dct.h"
#include "apps/gauss/gauss.h"
#include "apps/knight/knight.h"
#include "apps/othello/othello.h"
#include "common/bytes.h"
#include "dse/sched/serving.h"
#include "dse/sim_runtime.h"
#include "net/fault.h"
#include "dse/ssi/stats.h"
#include "dse/threaded_runtime.h"
#include "dse/trace.h"
#include "platform/profile.h"

namespace {

using namespace dse;

// Minimal flag parser: --key value and boolean --key forms.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  std::string Str(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  // Integer/number flag `key`, or `def` when absent. Exits 2 unless the
  // whole value parses: "--key must be an integer (got '<value>')".
  int Int(const std::string& key, int def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    long parsed = 0;
    if (!ParseLong(it->second, &parsed) || parsed < INT_MIN ||
        parsed > INT_MAX) {
      Reject(key, "an integer");
    }
    return static_cast<int>(parsed);
  }
  double Double(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const std::string& raw = it->second;
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(raw.c_str(), &end);
    if (raw.empty() || *end != '\0' || errno == ERANGE) {
      Reject(key, "a number");
    }
    return parsed;
  }

  // Reads integer flag `key` into *out when it was given. Exits 2 unless the
  // value is an integer in [lo, hi]: "--key must be <must_be> (got
  // '<value>'<note>)".
  void IntInRange(const std::string& key, long lo, long hi,
                  const char* must_be, int* out, const char* note = "") const {
    const auto it = values_.find(key);
    if (it == values_.end()) return;
    long parsed = 0;
    if (!ParseLong(it->second, &parsed) || parsed < lo || parsed > hi) {
      Reject(key, must_be, note);
    }
    *out = static_cast<int>(parsed);
  }

  [[noreturn]] void Reject(const std::string& key, const char* must_be,
                           const char* note = "") const {
    std::fprintf(stderr, "--%s must be %s (got '%s'%s)\n", key.c_str(),
                 must_be, values_.at(key).c_str(), note);
    std::exit(2);
  }

  // Fails with a list of every flag this invocation does not understand —
  // `known` holds the accepted keys (a typo'd flag should not be silently
  // ignored).
  void RejectUnknown(const std::vector<std::string>& known) const {
    bool bad = false;
    for (const auto& [key, value] : values_) {
      bool ok = false;
      for (const auto& k : known) {
        if (key == k) { ok = true; break; }
      }
      if (!ok) {
        std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
        bad = true;
      }
    }
    if (bad) {
      std::fprintf(stderr, "known flags:");
      for (const auto& k : known) std::fprintf(stderr, " --%s", k.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }

 private:
  // Parses all of `raw` as a base-10 integer.
  static bool ParseLong(const std::string& raw, long* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtol(raw.c_str(), &end, 10);
    return !raw.empty() && *end == '\0' && errno != ERANGE;
  }

  std::map<std::string, std::string> values_;
};

struct Workload {
  void (*register_fn)(TaskRegistry&);
  const char* main_task;
  std::vector<std::uint8_t> arg;
  std::string description;
  std::vector<std::string> flags;  // app-specific flag names
};

// RegisterServingTasks takes a pointer; Workload wants a reference fn.
void RegisterServing(TaskRegistry& registry) {
  sched::RegisterServingTasks(&registry);
}

Workload BuildWorkload(const std::string& app, const Flags& flags,
                       int procs) {
  if (app == "gauss") {
    apps::gauss::Config c{.n = flags.Int("n", 300),
                          .sweeps = flags.Int("sweeps", 10),
                          .workers = procs};
    return {apps::gauss::Register, apps::gauss::kMainTask,
            apps::gauss::MakeArg(c),
            "gauss-seidel N=" + std::to_string(c.n) + " sweeps=" +
                std::to_string(c.sweeps),
            {"n", "sweeps"}};
  }
  if (app == "dct") {
    const int image = flags.Int("image", 128);
    apps::dct::Config c{.width = image,
                        .height = image,
                        .block = flags.Int("block", 8),
                        .keep_fraction = flags.Double("keep", 0.25),
                        .workers = procs,
                        .separable = flags.Has("separable")};
    return {apps::dct::Register, apps::dct::kMainTask, apps::dct::MakeArg(c),
            "dct-ii " + std::to_string(image) + "^2 block=" +
                std::to_string(c.block),
            {"image", "block", "keep", "separable"}};
  }
  if (app == "othello") {
    apps::othello::Config c{.depth = flags.Int("depth", 5),
                            .workers = procs,
                            .min_tasks = flags.Int("tasks", 0)};
    return {apps::othello::Register, apps::othello::kMainTask,
            apps::othello::MakeArg(c),
            "othello depth=" + std::to_string(c.depth),
            {"depth", "tasks"}};
  }
  if (app == "knight") {
    apps::knight::Config c{.board = flags.Int("board", 5),
                           .start = flags.Int("start", 0),
                           .target_jobs = flags.Int("jobs", 16),
                           .workers = procs};
    return {apps::knight::Register, apps::knight::kMainTask,
            apps::knight::MakeArg(c),
            "knight " + std::to_string(c.board) + "x" +
                std::to_string(c.board) + " jobs=" +
                std::to_string(c.target_jobs),
            {"board", "start", "jobs"}};
  }
  if (app == "serving") {
    sched::ServingConfig c;
    // Pacing must match the runtime: virtual Compute time on the simulator,
    // real sleeps on the threaded runtime.
    c.threaded = flags.Str("mode", "threaded") == "threaded";
    c.tenants = static_cast<std::uint32_t>(flags.Int("tenants", 4));
    c.jobs_per_tenant = static_cast<std::uint32_t>(flags.Int("jobs", 250));
    c.gap_us = static_cast<std::uint32_t>(flags.Int("gap-us", 1000));
    c.service_us = static_cast<std::uint32_t>(flags.Int("service-us", 2000));
    c.gang = static_cast<std::uint32_t>(flags.Int("gang", 4));
    c.gang_every = static_cast<std::uint32_t>(flags.Int("gang-every", 0));
    c.seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
    // Under rolling maintenance the long-lived tenant generators must live
    // on the undrainable bootstrap node: a drain hands off GMM homes and
    // waits out scheduler jobs but does not migrate resident user tasks.
    c.pin_tenants = flags.Has("rolling");
    return {RegisterServing, "sched.serving_main",
            sched::EncodeServingConfig(c),
            "serving tenants=" + std::to_string(c.tenants) + " jobs=" +
                std::to_string(c.jobs_per_tenant) + " gap=" +
                std::to_string(c.gap_us) + "us",
            {"tenants", "jobs", "gap-us", "service-us", "gang", "gang-every",
             "seed", "slots", "quota", "queue-cap", "round-robin"}};
  }
  std::fprintf(stderr,
               "unknown app '%s' (gauss|dct|othello|knight|serving)\n",
               app.c_str());
  std::exit(2);
}

// Prints the serving app's final ledger (its main task returns the
// scheduler counter map as its result bytes).
void PrintServingLedger(const std::vector<std::uint8_t>& result) {
  auto ledger = sched::DecodeServingResult(result);
  if (!ledger.ok()) {
    std::fprintf(stderr, "serving result decode failed: %s\n",
                 ledger.status().ToString().c_str());
    return;
  }
  auto at = [&ledger](const char* key) -> unsigned long long {
    const auto it = ledger->find(key);
    return it == ledger->end() ? 0ULL : it->second;
  };
  std::printf(
      "serving: submitted %llu admitted %llu shed %llu completed %llu "
      "failed %llu restarts %llu violations %llu\n",
      at("sched.submitted"), at("sched.admitted"), at("sched.shed"),
      at("sched.completed"), at("sched.failed"), at("sched.restarts"),
      at("sched.invariant_violations"));
  std::printf(
      "serving: latency p50 %llu us, p99 %llu us, max %llu us | "
      "utilization %.1f%% (busy %llu us over %llu us x %llu slots)\n",
      at("sched.latency_p50_us"), at("sched.latency_p99_us"),
      at("sched.latency_max_us"),
      at("sched.span_us") == 0 || at("sched.slots_total") == 0
          ? 0.0
          : 100.0 * static_cast<double>(at("sched.busy_us")) /
                (static_cast<double>(at("sched.span_us")) *
                 static_cast<double>(at("sched.slots_total"))),
      at("sched.busy_us"), at("sched.span_us"), at("sched.slots_total"));
}

int Usage() {
  std::fprintf(stderr,
               "usage: dse_run <gauss|dct|othello|knight|serving> [--mode "
               "threaded|sim] [--platform sunos|aix|linux|solaris] "
               "[--procs N] [--cache] [--batch] [--prefetch K] "
               "[--write-combine] [--legacy] "
               "[--medium bus|switched|fabric] [--topology SPEC] "
               "[--link-bw MBPS] [--link-lat US] [--vc N] "
               "[--fault-plan FILE] [--rpc-deadline-ms N] "
               "[--replication 0|1] [--restart-tasks] "
               "[--min-quorum N] [--rejoin 0|1] [--rolling] "
               "[--stats] [--stats-json [FILE]] [--stats-csv [FILE]] "
               "[--ps] [--list-tasks] [app flags]\n");
  return 2;
}

// Resolves a platform id or exits with the accepted ids spelled out.
const platform::Profile& ProfileOrDie(const std::string& id) {
  const platform::Profile* p = platform::TryProfileById(id);
  if (p == nullptr) {
    std::fprintf(stderr, "unknown platform '%s'; known platforms:",
                 id.c_str());
    for (const auto& known : platform::ProfileIds()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return *p;
}

// Writes `text` to `path`, or stdout when the flag was given bare.
int Export(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("stats -> %s\n", path.c_str());
  return 0;
}

// Renders every requested --stats/--ps view of a finished run.
int EmitIntrospection(const Flags& flags,
                      const std::vector<MetricsSnapshot>& per_node,
                      const MetricsSnapshot& cluster_only,
                      const std::map<std::string, RunningStats>& histograms,
                      const std::vector<proto::PsEntry>& ps) {
  if (flags.Has("stats")) {
    std::fputs(ssi::FormatStatsTable(per_node, cluster_only).c_str(), stdout);
    if (!histograms.empty()) {
      std::fputs("\n", stdout);
      std::fputs(ssi::FormatHistogramTable(histograms).c_str(), stdout);
    }
  }
  if (flags.Has("stats-json")) {
    const int rc = Export(flags.Str("stats-json", ""),
                          ssi::StatsToJson(per_node, cluster_only));
    if (rc != 0) return rc;
  }
  if (flags.Has("stats-csv")) {
    const int rc = Export(flags.Str("stats-csv", ""),
                          ssi::StatsToCsv(per_node, cluster_only));
    if (rc != 0) return rc;
  }
  if (flags.Has("ps")) {
    std::fputs(ssi::FormatPsTable(ps).c_str(), stdout);
  }
  return 0;
}

// The nodes of a `procs`-node run that the plan's permanent kills (no
// revive) spare.
std::vector<NodeId> PermanentSurvivors(const net::FaultPlan& plan,
                                       int procs) {
  std::set<NodeId> dead;
  for (const auto& kill : plan.kills) {
    if (kill.node >= 0 && kill.node < procs && kill.revive < 0) {
      dead.insert(kill.node);
    }
  }
  std::vector<NodeId> alive;
  for (NodeId n = 0; n < procs; ++n) {
    if (dead.count(n) == 0) alive.push_back(n);
  }
  return alive;
}

// The size of the largest set of `nodes` that can reach each other, where
// `linked(a, b)` says whether a and b are directly reachable.
size_t LargestComponent(const std::vector<NodeId>& nodes,
                        const std::function<bool(NodeId, NodeId)>& linked) {
  size_t largest = 0;
  std::set<NodeId> seen;
  for (NodeId root : nodes) {
    if (seen.count(root) != 0) continue;
    std::vector<NodeId> stack = {root};
    seen.insert(root);
    size_t size = 0;
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      ++size;
      for (NodeId next : nodes) {
        if (seen.count(next) == 0 && linked(cur, next)) {
          seen.insert(next);
          stack.push_back(next);
        }
      }
    }
    largest = std::max(largest, size);
  }
  return largest;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string app = argv[1];
  if (app == "--help" || app == "-h") return Usage();
  if (app.rfind("--", 0) == 0) {
    std::fprintf(stderr, "first argument must be an app, got '%s'\n",
                 app.c_str());
    return Usage();
  }
  const Flags flags(argc, argv, 2);

  const int procs = flags.Int("procs", 4);
  if (procs < 1) {
    std::fprintf(stderr, "--procs must be >= 1 (got %d)\n", procs);
    return 2;
  }
  Workload workload = BuildWorkload(app, flags, procs);

  std::vector<std::string> known = {
      "mode",       "platform",   "procs",         "cache",
      "legacy",     "trace",      "machines",      "stats",
      "stats-json", "stats-csv",  "ps",            "list-tasks",
      "help",       "batch",      "prefetch",      "write-combine",
      "fault-plan", "rpc-deadline-ms", "replication", "restart-tasks",
      "min-quorum", "rejoin",     "rolling",       "medium",
      "topology",   "link-bw",    "link-lat",      "vc"};
  known.insert(known.end(), workload.flags.begin(), workload.flags.end());
  flags.RejectUnknown(known);

  if (flags.Has("list-tasks")) {
    TaskRegistry registry;
    workload.register_fn(registry);
    std::printf("tasks registered by '%s' (main: %s):\n", app.c_str(),
                workload.main_task);
    for (const auto& name : registry.Names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }

  // GMM fast-path knobs (shared by both modes). --prefetch implies --cache:
  // the read-ahead lands in the client read cache.
  ClusterOptions cluster;
  cluster.batching = flags.Has("batch");
  cluster.prefetch_depth = flags.Int("prefetch", 0);
  if (cluster.prefetch_depth < 0) {
    std::fprintf(stderr, "--prefetch must be >= 0 (got %d)\n",
                 cluster.prefetch_depth);
    return 2;
  }
  cluster.write_combine = flags.Has("write-combine");
  cluster.read_cache = flags.Has("cache") || cluster.prefetch_depth > 0;

  // Fault injection + data-plane deadline (strictly validated: a malformed
  // plan or a nonsense deadline must not silently run fault-free).
  net::FaultPlan fault_plan;
  if (flags.Has("fault-plan")) {
    const std::string plan_path = flags.Str("fault-plan", "");
    if (plan_path.empty()) {
      std::fprintf(stderr, "--fault-plan requires a file argument\n");
      return 2;
    }
    auto plan = net::LoadFaultPlan(plan_path);
    if (!plan.ok()) {
      std::fprintf(stderr, "--fault-plan %s: %s\n", plan_path.c_str(),
                   plan.status().ToString().c_str());
      return 2;
    }
    fault_plan = std::move(*plan);
  }
  flags.IntInRange("rpc-deadline-ms", 0, INT_MAX, "an integer >= 0",
                   &cluster.rpc_deadline_ms);
  if (fault_plan.enabled() && cluster.rpc_deadline_ms == 0) {
    std::fprintf(stderr,
                 "--fault-plan requires a finite --rpc-deadline-ms (> 0): "
                 "lost frames would hang the run forever\n");
    return 2;
  }

  // Recovery knobs (docs/recovery.md). Strictly validated: the subsystem
  // tolerates f = 1, so anything but 0 or 1 replicas is a lie we refuse to
  // tell, and --restart-tasks is meaningless without the evictions that
  // replication enables.
  flags.IntInRange("replication", 0, 1, "0 or 1", &cluster.replication);
  cluster.restart_tasks = flags.Has("restart-tasks");
  if (cluster.restart_tasks && cluster.replication != 1) {
    std::fprintf(stderr,
                 "--restart-tasks requires --replication 1: without "
                 "replication nodes are never evicted, so a task on a dead "
                 "node is waited on, not restarted\n");
    return 2;
  }

  // Self-healing membership knobs (docs/recovery.md). Both only mean
  // anything with the evictions that replication enables.
  const std::string quorum_range = "an integer in [0, " +
                                   std::to_string(procs) + "]";
  flags.IntInRange("min-quorum", 0, procs, quorum_range.c_str(),
                   &cluster.min_quorum,
                   "; 0 = strict majority of the current membership");
  if (flags.Has("min-quorum") && cluster.replication != 1) {
    std::fprintf(stderr,
                 "--min-quorum requires --replication 1: without "
                 "replication there are no evictions to guard\n");
    return 2;
  }
  if (flags.Has("rejoin")) {
    const std::string raw = flags.Str("rejoin", "");
    if (raw != "0" && raw != "1") {
      std::fprintf(stderr, "--rejoin must be 0 or 1 (got '%s')\n",
                   raw.c_str());
      return 2;
    }
    if (cluster.replication != 1) {
      std::fprintf(stderr,
                   "--rejoin requires --replication 1: without replication "
                   "nodes are never evicted, so there is nothing to rejoin\n");
      return 2;
    }
    cluster.rejoin = raw == "1";
  }

  // Members an eviction out of `membership` members needs.
  const auto quorum = [&cluster](int membership) {
    return cluster.min_quorum > 0 ? cluster.min_quorum : membership / 2 + 1;
  };

  // Scheduler sizing (serving app only; docs/scheduling.md). The flags are
  // app-specific so RejectUnknown already refused them for other apps.
  if (app == "serving") {
    sched::Config& sched_cfg = cluster.sched;
    sched_cfg.enabled = true;
    sched_cfg.slots_per_node = flags.Int("slots", 8);
    sched_cfg.tenant_quota = flags.Int("quota", 4);
    sched_cfg.queue_cap = flags.Int("queue-cap", 64);
    sched_cfg.load_aware = !flags.Has("round-robin");
    if (sched_cfg.slots_per_node < 1 || sched_cfg.tenant_quota < 1 ||
        sched_cfg.queue_cap < 1) {
      std::fprintf(stderr,
                   "--slots/--quota/--queue-cap must all be >= 1\n");
      return 2;
    }
  }

  // Interconnect medium (sim only): a validated enum.
  const std::string medium_name = flags.Str("medium", "bus");
  if (flags.Has("medium") && medium_name != "bus" &&
      medium_name != "switched" && medium_name != "fabric") {
    std::fprintf(stderr, "--medium must be one of bus|switched|fabric "
                         "(got '%s')\n",
                 medium_name.c_str());
    return 2;
  }

  // Fabric knobs: strictly validated and refused outright when the medium
  // is not the fabric (a silently ignored topology is a lie about the run).
  const bool fabric_knob_given = flags.Has("topology") ||
                                 flags.Has("link-bw") ||
                                 flags.Has("link-lat") || flags.Has("vc");
  if (fabric_knob_given && medium_name != "fabric") {
    std::fprintf(stderr,
                 "--topology/--link-bw/--link-lat/--vc configure the routed "
                 "fabric; they require --medium fabric\n");
    return 2;
  }
  if (!fault_plan.fabric_links.empty() && medium_name != "fabric") {
    std::fprintf(stderr,
                 "--fault-plan has flink directives (fabric link severs); "
                 "they require --medium fabric\n");
    return 2;
  }
  simnet::fabric::FabricOptions fabric_opts;
  fabric_opts.topology = flags.Str("topology", "auto");
  if (flags.Has("link-bw")) {
    const std::string raw = flags.Str("link-bw", "");
    char* end = nullptr;
    const double mbps = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end == nullptr || *end != '\0' || mbps <= 0) {
      std::fprintf(stderr, "--link-bw must be a positive Mb/s value "
                           "(got '%s')\n",
                   raw.c_str());
      return 2;
    }
    fabric_opts.link_bandwidth_bps = mbps * 1e6;
  }
  if (flags.Has("link-lat")) {
    const std::string raw = flags.Str("link-lat", "");
    char* end = nullptr;
    const double us = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end == nullptr || *end != '\0' || us < 0) {
      std::fprintf(stderr, "--link-lat must be a microsecond value >= 0 "
                           "(got '%s')\n",
                   raw.c_str());
      return 2;
    }
    fabric_opts.link_latency = sim::Micros(us);
  }
  flags.IntInRange("vc", 1, 16, "an integer in [1, 16]", &fabric_opts.vcs);

  // Static quorum-attainability check: a plan whose *permanent* faults
  // (kills without revive, severs without heal) leave no reachable set of
  // at least quorum size would park the whole cluster forever — every call
  // failing over until its bounded failover budget errors out. Refuse it
  // up front with an explanation instead.
  if (cluster.replication == 1 && fault_plan.enabled()) {
    const std::vector<NodeId> alive = PermanentSurvivors(fault_plan, procs);
    // Sequential-kill feasibility under the default majority rule: each
    // eviction needs the surviving membership to still hold a quorum of the
    // membership it is leaving.
    bool unattainable = false;
    int membership = procs;
    while (membership > static_cast<int>(alive.size())) {
      if (membership - 1 < quorum(membership)) {
        unattainable = true;
        break;
      }
      --membership;
    }
    // Permanent severs: the surviving nodes must keep one reachability
    // component of quorum size once every permanent cut is in force.
    if (!unattainable) {
      const size_t largest =
          LargestComponent(alive, [&fault_plan](NodeId a, NodeId b) {
            for (const auto& sv : fault_plan.severs) {
              if (sv.heal >= 0) continue;
              if ((sv.a == a && sv.b == b) || (sv.a == b && sv.b == a)) {
                return false;
              }
            }
            return true;
          });
      if (static_cast<int>(largest) < quorum(membership)) unattainable = true;
    }
    if (unattainable) {
      std::fprintf(stderr,
                   "--fault-plan makes the eviction quorum permanently "
                   "unattainable: its permanent kills/severs leave no "
                   "reachable set of %s members, so every node would park "
                   "(recovery.quorum_parks) and the run could never "
                   "converge — refuse instead of hanging\n",
                   cluster.min_quorum > 0 ? "--min-quorum" : "majority");
      return 2;
    }
  }

  // Planned drains (docs/recovery.md): validated up front. A drain that can
  // never run its cutover would spin the maintenance cycle forever, so every
  // impossible schedule fails loudly here instead.
  if (!fault_plan.drains.empty()) {
    if (cluster.replication != 1) {
      std::fprintf(stderr,
                   "--fault-plan has drain directives; they require "
                   "--replication 1: without replication there is no backup "
                   "to hand a draining node's homes to\n");
      return 2;
    }
    for (const auto& dr : fault_plan.drains) {
      if (dr.node < 0 || dr.node >= procs) {
        std::fprintf(stderr,
                     "--fault-plan drains unknown node %d: this run has "
                     "nodes 0..%d\n",
                     dr.node, procs - 1);
        return 2;
      }
      if (dr.node == 0) {
        std::fprintf(stderr,
                     "--fault-plan drains node 0: the bootstrap coordinator "
                     "(and scheduler host) cannot be drained\n");
        return 2;
      }
      for (const auto& kill : fault_plan.kills) {
        if (kill.node == dr.node && kill.at <= dr.after) {
          std::fprintf(stderr,
                       "--fault-plan drains node %d after %llu frames but "
                       "kills it at %llu: a dead node cannot drain (schedule "
                       "the kill after the drain to model a mid-drain "
                       "crash)\n",
                       dr.node,
                       static_cast<unsigned long long>(dr.after),
                       static_cast<unsigned long long>(kill.at));
          return 2;
        }
      }
      // The planned cutover is an eviction: the members left behind must
      // still be able to commit it.
      int perm_dead = 0;
      for (const auto& kill : fault_plan.kills) {
        if (kill.node >= 0 && kill.node < procs && kill.revive < 0 &&
            kill.node != dr.node) {
          ++perm_dead;
        }
      }
      const int survivors = procs - perm_dead - 1;
      const int need = quorum(procs);
      if (survivors < need) {
        std::fprintf(stderr,
                     "--fault-plan drain of node %d would break quorum: the "
                     "planned eviction leaves %d member(s) but committing it "
                     "needs %d\n",
                     dr.node, survivors, need);
        return 2;
      }
    }
  }

  // A kill schedule interacts with cluster membership: refuse plans that
  // leave no survivor, and narrate the coordinator succession so a log
  // reader knows which node announces each eviction.
  if (!fault_plan.kills.empty()) {
    std::set<NodeId> doomed;
    for (const auto& kill : fault_plan.kills) {
      if (kill.node >= 0 && kill.node < procs) doomed.insert(kill.node);
    }
    if (static_cast<int>(doomed.size()) >= procs) {
      std::fprintf(stderr,
                   "--fault-plan kills all %d nodes: with no survivor there "
                   "is no backup to promote and no coordinator to evict the "
                   "dead — the run cannot produce a result\n",
                   procs);
      return 2;
    }
    if (cluster.replication == 1) {
      // Coordinator = lowest live rank; succession is implicit. Walk the
      // kills in schedule order and report each handover.
      std::set<NodeId> dead;
      NodeId coord = 0;
      std::string chain = "0";
      for (const auto& kill : fault_plan.kills) {
        if (kill.node < 0 || kill.node >= procs) continue;
        dead.insert(kill.node);
        if (kill.node != coord) continue;
        while (dead.count(coord) != 0) ++coord;
        chain += " -> " + std::to_string(coord);
      }
      std::printf(
          "recovery: replication on, %zu scheduled kill(s), coordinator "
          "succession %s\n",
          doomed.size(), chain.c_str());
    }
  }

  const std::string mode = flags.Str("mode", "threaded");

  // Rolling-restart maintenance (docs/recovery.md): the simulator's driver
  // drains, restarts and rejoins every node except node 0 in sequence while
  // the workload runs.
  const bool rolling = flags.Has("rolling");
  if (rolling) {
    if (mode != "sim") {
      std::fprintf(stderr,
                   "--rolling drives the simulator's rolling-restart "
                   "maintenance cycle; it requires --mode sim\n");
      return 2;
    }
    if (cluster.replication != 1) {
      std::fprintf(stderr,
                   "--rolling requires --replication 1: a rolling restart "
                   "hands each node's homes to its backup before the "
                   "restart\n");
      return 2;
    }
    if (!cluster.rejoin) {
      std::fprintf(stderr,
                   "--rolling requires --rejoin 1: a restarted node must be "
                   "able to re-enter the membership\n");
      return 2;
    }
  }

  if (mode == "threaded") {
    if (flags.Has("medium") || fabric_knob_given) {
      std::fprintf(stderr,
                   "--medium and the fabric knobs model simulated "
                   "interconnects; they require --mode sim (the threaded "
                   "runtime uses the real in-process fabric)\n");
      return 2;
    }
    ThreadedOptions opts;
    static_cast<ClusterOptions&>(opts) = cluster;
    opts.num_nodes = procs;
    opts.fault_plan = fault_plan;
    ThreadedRuntime rt(opts);
    workload.register_fn(rt.registry());
    const auto result = rt.RunMain(workload.main_task, workload.arg);
    std::printf("%s | threaded %d nodes | %.1f ms wall | result %zu bytes\n",
                workload.description.c_str(), procs,
                rt.last_run_seconds() * 1e3, result.size());
    if (app == "serving") PrintServingLedger(result);
    // The injector's tallies are cluster-wide (one injector serves every
    // link), so they join the stats view beside the per-node counters.
    return EmitIntrospection(flags, rt.ClusterStats(),
                             /*cluster_only=*/rt.FaultCounters(),
                             rt.ClusterHistograms(), rt.Ps());
  }
  if (mode == "sim") {
    SimOptions opts;
    static_cast<ClusterOptions&>(opts) = cluster;
    opts.profile = ProfileOrDie(flags.Str("platform", "sunos"));
    opts.num_processors = procs;
    opts.fault_plan = fault_plan;
    opts.rolling = rolling;
    if (flags.Has("legacy")) {
      opts.organization = OrganizationMode::kLegacyTwoProcess;
    }
    const std::string machines = flags.Str("machines", "");
    if (!machines.empty()) {
      size_t pos = 0;
      while (pos <= machines.size()) {
        const size_t comma = machines.find(',', pos);
        const std::string id = machines.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        opts.machine_profiles.push_back(ProfileOrDie(id));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    if (medium_name == "switched") opts.medium = MediumKind::kSwitched;
    if (medium_name == "fabric") {
      opts.medium = MediumKind::kRoutedFabric;
      opts.fabric = fabric_opts;
      const int machine_count =
          opts.machine_profiles.empty()
              ? opts.profile.physical_machines
              : static_cast<int>(opts.machine_profiles.size());
      // Validate the topology up front for a friendly error (the runtime
      // would only DSE_CHECK).
      auto spec = simnet::fabric::ParseTopologySpec(fabric_opts.topology,
                                                    machine_count);
      if (!spec.ok()) {
        std::fprintf(stderr, "--topology %s: %s\n",
                     fabric_opts.topology.c_str(),
                     spec.status().ToString().c_str());
        return 2;
      }
      auto topo = simnet::fabric::Topology::Build(*spec, machine_count,
                                                  opts.seed);
      if (!topo.ok()) {
        std::fprintf(stderr, "--topology %s: %s\n",
                     fabric_opts.topology.c_str(),
                     topo.status().ToString().c_str());
        return 2;
      }
      if (topo->NeedsDateline() && fabric_opts.vcs < 2) {
        std::fprintf(stderr,
                     "--topology %s needs --vc >= 2: ring/torus wraparound "
                     "links switch dateline VC classes to stay "
                     "deadlock-free\n",
                     simnet::fabric::ToString(*spec).c_str());
        return 2;
      }
      for (const auto& fs : fault_plan.fabric_links) {
        if (fs.a < 0 || fs.b < 0 || fs.a >= topo->routers() ||
            fs.b >= topo->routers()) {
          std::fprintf(stderr,
                       "--fault-plan flink %d %d: topology %s has routers "
                       "0..%d\n",
                       fs.a, fs.b,
                       simnet::fabric::ToString(*spec).c_str(),
                       topo->routers() - 1);
          return 2;
        }
        if (!topo->HasRouterLink(fs.a, fs.b)) {
          std::fprintf(stderr,
                       "--fault-plan flink %d %d: topology %s has no link "
                       "between those routers (a typo must not silently run "
                       "fault-free)\n",
                       fs.a, fs.b,
                       simnet::fabric::ToString(*spec).c_str());
          return 2;
        }
      }
      // Permanent fabric-link severs extend the quorum-attainability check:
      // if they partition the machines so that no reachable node set can
      // hold a quorum, the run would park forever — refuse instead.
      if (cluster.replication == 1) {
        for (const auto& fs : fault_plan.fabric_links) {
          if (fs.heal < 0) (void)topo->SeverRouterLink(fs.a, fs.b);
        }
        const std::vector<NodeId> alive =
            PermanentSurvivors(fault_plan, procs);
        const size_t largest = LargestComponent(
            alive, [&topo, machine_count](NodeId a, NodeId b) {
              return topo->Reachable(a % machine_count, b % machine_count);
            });
        const int need = quorum(static_cast<int>(alive.size()));
        if (static_cast<int>(largest) < need) {
          std::fprintf(stderr,
                       "--fault-plan makes the eviction quorum permanently "
                       "unattainable: its unhealed flink severs partition "
                       "the fabric so no reachable set of %d members "
                       "remains\n",
                       need);
          return 2;
        }
      }
    }
    trace::Recorder recorder;
    const std::string trace_path = flags.Str("trace", "");
    if (!trace_path.empty()) opts.trace = &recorder;
    SimRuntime rt(opts);
    workload.register_fn(rt.registry());
    const SimReport report = rt.Run(workload.main_task, workload.arg);
    if (!trace_path.empty()) {
      const Status s = recorder.WriteChromeJson(trace_path);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("trace: %zu events -> %s\n", recorder.size(),
                  trace_path.c_str());
    }
    std::printf(
        "%s | sim %s x%d | %.4f s virtual | %llu msgs (%llu loopback) | "
        "%llu frames, %llu collisions | %s %.1f%%\n",
        workload.description.c_str(), opts.profile.id.c_str(), procs,
        report.virtual_seconds,
        static_cast<unsigned long long>(report.messages),
        static_cast<unsigned long long>(report.loopback),
        static_cast<unsigned long long>(report.wire_frames),
        static_cast<unsigned long long>(report.collisions),
        medium_name.c_str(), report.bus_utilization * 100);
    if (app == "serving") PrintServingLedger(report.main_result);
    // Medium counters and injected-fault tallies are both cluster-wide.
    MetricsSnapshot cluster_only = report.medium_counters;
    for (const auto& [name, value] : report.fault_counters) {
      cluster_only[name] += value;
    }
    return EmitIntrospection(flags, report.node_stats, cluster_only,
                             report.histograms, report.ps);
  }
  std::fprintf(stderr, "unknown mode '%s' (threaded|sim)\n", mode.c_str());
  return 2;
}
