// Figure-regeneration harness: runs processor sweeps of the evaluation
// applications on the simulated platforms and prints the paper's data
// series as aligned tables.
#pragma once

#include <string>
#include <vector>

#include "dse/sim_runtime.h"
#include "platform/profile.h"

namespace dse::benchlib {

struct Series {
  std::string label;
  std::vector<double> values;  // one per x point
};

struct Figure {
  std::string id;        // "Figure 5"
  std::string title;
  std::string xlabel;    // "processors"
  std::string ylabel;    // "time [s]" or "speed-up"
  std::vector<int> x;
  std::vector<Series> series;
};

// Prints an aligned table of the figure (x down the rows, series across).
void Print(const Figure& figure);

// Writes the figure as CSV (header: x,<label>,<label>...).
Status WriteCsv(const Figure& figure, const std::string& path);

// Writes the figure as JSON:
//   {"id": ..., "title": ..., "xlabel": ..., "ylabel": ...,
//    "x": [...], "series": [{"label": ..., "values": [...]}, ...]}
Status WriteJson(const Figure& figure, const std::string& path);

// Standard entry point for the per-figure binaries: prints the table and,
// when invoked as `<binary> --csv <dir>`, also writes `<dir>/<id>.csv`.
int Output(const Figure& figure, int argc, char** argv);

// Converts an execution-time figure into its speed-up twin
// (speedup(p) = t(1) / t(p), per series).
Figure ToSpeedup(const Figure& times, const std::string& id,
                 const std::string& title);

// Processor counts the paper sweeps (1..12 over 6 physical machines).
std::vector<int> DefaultProcessorSweep();

// Runs one simulated execution and returns the virtual makespan in seconds.
// `workers` tasks are spawned by the app main; `procs` kernels exist. The
// kernel knobs are the inherited ClusterOptions, all at their defaults in
// the paper figures.
struct RunSpec : ClusterOptions {
  platform::Profile profile;
  int processors = 1;
  OrganizationMode organization = OrganizationMode::kUnifiedLibrary;
  MediumKind medium = MediumKind::kSharedBus;
  // Routed-fabric configuration (MediumKind::kRoutedFabric only).
  simnet::fabric::FabricOptions fabric = {};
  // > 0: override profile.physical_machines (scale-out studies give every
  // PE its own machine instead of the paper's 6-machine lab).
  int physical_machines = 0;
};
double RunApp(const RunSpec& spec, void (*register_fn)(TaskRegistry&),
              const char* main_task, std::vector<std::uint8_t> arg,
              SimReport* report_out = nullptr);

// --- Per-application figure builders (shared by the per-figure binaries) ---

// Gauss-Seidel execution time: series = N-dimension values.
Figure GaussTimes(const platform::Profile& profile,
                  const std::vector<int>& dims, int sweeps,
                  const std::vector<int>& processors);

// DCT-II execution time: series = block sizes.
Figure DctTimes(const platform::Profile& profile, int image,
                const std::vector<int>& blocks, double keep,
                const std::vector<int>& processors);

// Othello speed-up: series = search depths.
Figure OthelloSpeedups(const platform::Profile& profile,
                       const std::vector<int>& depths,
                       const std::vector<int>& processors);

// Knight's Tour execution time: series = job-count targets.
Figure KnightTimes(const platform::Profile& profile, int board,
                   const std::vector<int>& job_targets,
                   const std::vector<int>& processors);

}  // namespace dse::benchlib
