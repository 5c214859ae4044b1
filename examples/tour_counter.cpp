// Domain example: Knight's-Tour enumeration with tunable job granularity.
//
// Counts all open knight's tours on a 5x5 board from the corner, splitting
// the search tree into different numbers of jobs, and shows how granularity
// trades distribution balance against communication.
//
//   $ ./tour_counter [board]
#include <cstdio>
#include <cstdlib>

#include "apps/knight/knight.h"
#include "common/bytes.h"
#include "dse/threaded_runtime.h"

using namespace dse;

int main(int argc, char** argv) {
  const int board = argc > 1 ? std::atoi(argv[1]) : 5;

  const auto whole = apps::knight::CountWholeTree(board, 0);
  std::printf(
      "Knight's tours on a %dx%d board from the corner: %llu "
      "(%llu search nodes)\n\n",
      board, board, static_cast<unsigned long long>(whole.tours),
      static_cast<unsigned long long>(whole.nodes));

  std::printf("%-12s %10s %10s %12s\n", "target jobs", "jobs", "tours",
              "wall [ms]");
  for (const int jobs : {2, 8, 32, 128}) {
    ThreadedOptions options;
    options.num_nodes = 4;
    ThreadedRuntime rt(options);
    apps::knight::Register(rt.registry());
    apps::knight::Config config{
        .board = board, .start = 0, .target_jobs = jobs, .workers = 4};
    const auto result =
        rt.RunMain(apps::knight::kMainTask, apps::knight::MakeArg(config));

    ByteReader r(result.data(), result.size());
    std::int64_t tours = 0;
    DSE_CHECK_OK(r.ReadI64(&tours));
    DSE_CHECK(static_cast<std::uint64_t>(tours) == whole.tours);

    const auto actual =
        apps::knight::MakeJobs(board, 0, jobs).size();
    std::printf("%-12d %10zu %10lld %12.1f\n", jobs, actual,
                static_cast<long long>(tours), rt.last_run_seconds() * 1e3);
  }
  std::printf("\nEvery decomposition counts the same tours — the "
              "decomposition only changes the distribution.\n");
  return 0;
}
