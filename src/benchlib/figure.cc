#include "benchlib/figure.h"

#include <cctype>
#include <cstdio>
#include <string>

#include "apps/dct/dct.h"
#include "apps/gauss/gauss.h"
#include "apps/knight/knight.h"
#include "apps/othello/othello.h"
#include "common/check.h"

namespace dse::benchlib {

void Print(const Figure& figure) {
  std::printf("== %s: %s ==\n", figure.id.c_str(), figure.title.c_str());
  std::printf("%-12s", figure.xlabel.c_str());
  for (const Series& s : figure.series) {
    std::printf(" %14s", s.label.c_str());
  }
  std::printf("   [%s]\n", figure.ylabel.c_str());
  for (size_t i = 0; i < figure.x.size(); ++i) {
    std::printf("%-12d", figure.x[i]);
    for (const Series& s : figure.series) {
      std::printf(" %14.4f", s.values[i]);
    }
    std::printf("\n");
  }
  std::printf("\n");
  std::fflush(stdout);
}

Status WriteCsv(const Figure& figure, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Unavailable("cannot open '" + path + "'");
  std::fprintf(f, "%s", figure.xlabel.c_str());
  for (const Series& s : figure.series) {
    std::fprintf(f, ",%s", s.label.c_str());
  }
  std::fprintf(f, "\n");
  for (size_t i = 0; i < figure.x.size(); ++i) {
    std::fprintf(f, "%d", figure.x[i]);
    for (const Series& s : figure.series) {
      std::fprintf(f, ",%.6f", s.values[i]);
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return Status::Ok();
}

namespace {

// Minimal JSON string escape (labels/titles are plain ASCII in practice).
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Status WriteJson(const Figure& figure, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Unavailable("cannot open '" + path + "'");
  std::fprintf(f, "{\n  \"id\": \"%s\",\n  \"title\": \"%s\",\n",
               JsonEscape(figure.id).c_str(), JsonEscape(figure.title).c_str());
  std::fprintf(f, "  \"xlabel\": \"%s\",\n  \"ylabel\": \"%s\",\n",
               JsonEscape(figure.xlabel).c_str(),
               JsonEscape(figure.ylabel).c_str());
  std::fprintf(f, "  \"x\": [");
  for (size_t i = 0; i < figure.x.size(); ++i) {
    std::fprintf(f, "%s%d", i == 0 ? "" : ", ", figure.x[i]);
  }
  std::fprintf(f, "],\n  \"series\": [\n");
  for (size_t s = 0; s < figure.series.size(); ++s) {
    const Series& ser = figure.series[s];
    std::fprintf(f, "    {\"label\": \"%s\", \"values\": [",
                 JsonEscape(ser.label).c_str());
    for (size_t i = 0; i < ser.values.size(); ++i) {
      std::fprintf(f, "%s%.6f", i == 0 ? "" : ", ", ser.values[i]);
    }
    std::fprintf(f, "]}%s\n", s + 1 == figure.series.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return Status::Ok();
}

namespace {

// "Figure 12" -> "figure_12".
std::string CsvName(const std::string& id) {
  std::string name;
  for (const char c : id) {
    name += c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  }
  return name + ".csv";
}

}  // namespace

int Output(const Figure& figure, int argc, char** argv) {
  Print(figure);
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") {
      const std::string path =
          std::string(argv[i + 1]) + "/" + CsvName(figure.id);
      const Status s = WriteCsv(figure, path);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}

Figure ToSpeedup(const Figure& times, const std::string& id,
                 const std::string& title) {
  Figure out = times;
  out.id = id;
  out.title = title;
  out.ylabel = "speed-up";
  for (Series& s : out.series) {
    DSE_CHECK(!s.values.empty() && s.values[0] > 0);
    const double base = s.values[0];
    for (double& v : s.values) v = base / v;
  }
  return out;
}

std::vector<int> DefaultProcessorSweep() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

double RunApp(const RunSpec& spec, void (*register_fn)(TaskRegistry&),
              const char* main_task, std::vector<std::uint8_t> arg,
              SimReport* report_out) {
  SimOptions opts;
  static_cast<ClusterOptions&>(opts) = spec;
  opts.profile = spec.profile;
  if (spec.physical_machines > 0) {
    opts.profile.physical_machines = spec.physical_machines;
  }
  opts.num_processors = spec.processors;
  opts.organization = spec.organization;
  opts.medium = spec.medium;
  opts.fabric = spec.fabric;
  SimRuntime rt(opts);
  register_fn(rt.registry());
  SimReport report = rt.Run(main_task, std::move(arg));
  if (report_out != nullptr) *report_out = report;
  return report.virtual_seconds;
}

namespace {

// A run on the paper's testbed: `processors` kernels, every knob default.
RunSpec PaperRun(const platform::Profile& profile, int processors) {
  RunSpec spec;
  spec.profile = profile;
  spec.processors = processors;
  return spec;
}

}  // namespace

Figure GaussTimes(const platform::Profile& profile,
                  const std::vector<int>& dims, int sweeps,
                  const std::vector<int>& processors) {
  Figure fig;
  fig.title = "Gauss-Seidel on " + profile.os + " over " + profile.machine;
  fig.xlabel = "processors";
  fig.ylabel = "time [s]";
  fig.x = processors;
  for (const int n : dims) {
    Series s;
    s.label = "N=" + std::to_string(n);
    for (const int p : processors) {
      apps::gauss::Config config{.n = n, .sweeps = sweeps, .workers = p};
      s.values.push_back(RunApp(PaperRun(profile, p), apps::gauss::Register,
                                apps::gauss::kMainTask,
                                apps::gauss::MakeArg(config)));
    }
    fig.series.push_back(std::move(s));
  }
  return fig;
}

Figure DctTimes(const platform::Profile& profile, int image,
                const std::vector<int>& blocks, double keep,
                const std::vector<int>& processors) {
  Figure fig;
  fig.title = "DCT-II on " + profile.os + " over " + profile.machine;
  fig.xlabel = "processors";
  fig.ylabel = "time [s]";
  fig.x = processors;
  for (const int bs : blocks) {
    Series s;
    s.label = std::to_string(bs) + "x" + std::to_string(bs);
    for (const int p : processors) {
      apps::dct::Config config{.width = image,
                               .height = image,
                               .block = bs,
                               .keep_fraction = keep,
                               .workers = p};
      s.values.push_back(RunApp(PaperRun(profile, p), apps::dct::Register,
                                apps::dct::kMainTask,
                                apps::dct::MakeArg(config)));
    }
    fig.series.push_back(std::move(s));
  }
  return fig;
}

Figure OthelloSpeedups(const platform::Profile& profile,
                       const std::vector<int>& depths,
                       const std::vector<int>& processors) {
  Figure fig;
  fig.title = "Othello game on " + profile.os + " over " + profile.machine;
  fig.xlabel = "processors";
  fig.ylabel = "time [s]";
  fig.x = processors;
  for (const int depth : depths) {
    Series s;
    s.label = "Depth" + std::to_string(depth);
    for (const int p : processors) {
      // min_tasks is held constant across p so every run searches the same
      // tree (same total work; only the distribution varies).
      apps::othello::Config config{
          .depth = depth, .workers = p, .min_tasks = 24};
      s.values.push_back(RunApp(PaperRun(profile, p), apps::othello::Register,
                                apps::othello::kMainTask,
                                apps::othello::MakeArg(config)));
    }
    fig.series.push_back(std::move(s));
  }
  return ToSpeedup(fig, fig.id, fig.title);
}

Figure KnightTimes(const platform::Profile& profile, int board,
                   const std::vector<int>& job_targets,
                   const std::vector<int>& processors) {
  Figure fig;
  fig.title = "Knight's Tour on " + profile.os + " over " + profile.machine;
  fig.xlabel = "processors";
  fig.ylabel = "time [s]";
  fig.x = processors;
  for (const int jobs : job_targets) {
    Series s;
    s.label = std::to_string(jobs) + "_Jobs";
    for (const int p : processors) {
      apps::knight::Config config{
          .board = board, .start = 0, .target_jobs = jobs, .workers = p};
      s.values.push_back(RunApp(PaperRun(profile, p), apps::knight::Register,
                                apps::knight::kMainTask,
                                apps::knight::MakeArg(config)));
    }
    fig.series.push_back(std::move(s));
  }
  return fig;
}

}  // namespace dse::benchlib
