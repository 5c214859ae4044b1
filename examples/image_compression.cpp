// Domain example: parallel DCT-II image compression on a DSE cluster.
//
// Compresses a synthetic image at several block sizes on the real threaded
// runtime, reporting PSNR and the effective compression, then shows the same
// job on a simulated 1999 testbed for comparison.
//
//   $ ./image_compression
#include <cstdio>

#include "apps/dct/dct.h"
#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"

using namespace dse;

int main() {
  constexpr int kImage = 128;
  constexpr double kKeep = 0.25;

  std::printf("Parallel DCT-II compression of a %dx%d image (keep %.0f%%)\n",
              kImage, kImage, kKeep * 100);
  std::printf("%-8s %10s %10s %12s\n", "block", "PSNR [dB]", "kept", "wall");

  for (const int block : {4, 8, 16}) {
    ThreadedOptions options;
    options.num_nodes = 4;
    ThreadedRuntime rt(options);
    apps::dct::Register(rt.registry());
    apps::dct::Config config{.width = kImage,
                             .height = kImage,
                             .block = block,
                             .keep_fraction = kKeep,
                             .workers = 4};
    const auto result =
        rt.RunMain(apps::dct::kMainTask, apps::dct::MakeArg(config));

    ByteReader r(result.data(), result.size());
    std::uint64_t checksum = 0;
    double psnr = 0;
    DSE_CHECK_OK(r.ReadU64(&checksum));
    DSE_CHECK_OK(r.ReadF64(&psnr));
    std::printf("%-8d %10.2f %9.0f%% %10.1fms\n", block, psnr, kKeep * 100,
                rt.last_run_seconds() * 1e3);
  }

  // The same workload on the simulated SunOS/SparcStation testbed.
  std::printf("\nSimulated 1999 testbed (virtual time, 6 SparcStations):\n");
  std::printf("%-8s %12s %12s\n", "procs", "8x8 [s]", "messages");
  for (const int procs : {1, 2, 4, 6}) {
    SimOptions opts;
    opts.profile = platform::SunOsSparc();
    opts.num_processors = procs;
    SimRuntime sim(opts);
    apps::dct::Register(sim.registry());
    apps::dct::Config config{.width = kImage,
                             .height = kImage,
                             .block = 8,
                             .keep_fraction = kKeep,
                             .workers = procs};
    const SimReport report =
        sim.Run(apps::dct::kMainTask, apps::dct::MakeArg(config));
    std::printf("%-8d %12.3f %12llu\n", procs, report.virtual_seconds,
                static_cast<unsigned long long>(report.messages));
  }
  return 0;
}
