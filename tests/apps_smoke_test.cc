// End-to-end checks that every evaluation application computes the right
// answer on both runtimes, and that parallel results match the sequential
// baselines exactly.
#include <gtest/gtest.h>

#include "apps/dct/dct.h"
#include "apps/gauss/gauss.h"
#include "apps/knight/knight.h"
#include "apps/othello/othello.h"
#include "common/bytes.h"
#include "dse/sim_runtime.h"
#include "dse/threaded_runtime.h"
#include "platform/profile.h"
#include "tests/threaded_nodes.h"

namespace dse {
namespace {

template <typename RegisterFn>
std::vector<std::uint8_t> RunThreaded(RegisterFn register_fn,
                                      const char* main_name,
                                      std::vector<std::uint8_t> arg,
                                      int nodes) {
  ThreadedRuntime rt(ThreadedNodes(nodes));
  register_fn(rt.registry());
  return rt.RunMain(main_name, std::move(arg));
}

template <typename RegisterFn>
std::vector<std::uint8_t> RunSim(RegisterFn register_fn,
                                 const char* main_name,
                                 std::vector<std::uint8_t> arg, int procs) {
  SimOptions opts;
  opts.profile = platform::LinuxPentiumII();
  opts.num_processors = procs;
  SimRuntime rt(opts);
  register_fn(rt.registry());
  return rt.Run(main_name, std::move(arg)).main_result;
}

// --- Gauss-Seidel -----------------------------------------------------------

TEST(GaussApp, ParallelMatchesSequentialP1) {
  apps::gauss::Config config{.n = 64, .sweeps = 8, .workers = 1};
  const auto seq = apps::gauss::SolveSequential(config);
  const auto result = RunThreaded(apps::gauss::Register,
                                  apps::gauss::kMainTask,
                                  apps::gauss::MakeArg(config), 2);
  ByteReader r(result.data(), result.size());
  double residual = 0;
  std::uint64_t checksum = 0;
  ASSERT_TRUE(r.ReadF64(&residual).ok());
  ASSERT_TRUE(r.ReadU64(&checksum).ok());
  EXPECT_EQ(checksum, apps::gauss::Checksum(seq));
}

TEST(GaussApp, ParallelConverges) {
  apps::gauss::Config config{.n = 80, .sweeps = 30, .workers = 4};
  const auto result = RunThreaded(apps::gauss::Register,
                                  apps::gauss::kMainTask,
                                  apps::gauss::MakeArg(config), 4);
  ByteReader r(result.data(), result.size());
  double residual = 0;
  ASSERT_TRUE(r.ReadF64(&residual).ok());
  EXPECT_LT(residual, 1e-6);
}

TEST(GaussApp, SimMatchesThreaded) {
  apps::gauss::Config config{.n = 48, .sweeps = 6, .workers = 3};
  const auto a = RunThreaded(apps::gauss::Register, apps::gauss::kMainTask,
                             apps::gauss::MakeArg(config), 3);
  const auto b = RunSim(apps::gauss::Register, apps::gauss::kMainTask,
                        apps::gauss::MakeArg(config), 3);
  EXPECT_EQ(a, b);
}

// --- DCT-II ------------------------------------------------------------------

TEST(DctApp, ParallelMatchesSequential) {
  apps::dct::Config config{
      .width = 64, .height = 64, .block = 8, .keep_fraction = 0.25,
      .workers = 3};
  const auto image = apps::dct::MakeTestImage(config.width, config.height);
  const auto seq = apps::dct::CompressSequential(config, image);

  const auto result = RunThreaded(apps::dct::Register, apps::dct::kMainTask,
                                  apps::dct::MakeArg(config), 3);
  ByteReader r(result.data(), result.size());
  std::uint64_t checksum = 0;
  double psnr = 0;
  ASSERT_TRUE(r.ReadU64(&checksum).ok());
  ASSERT_TRUE(r.ReadF64(&psnr).ok());
  EXPECT_EQ(checksum, apps::dct::Checksum(seq));
  EXPECT_GT(psnr, 30.0);  // 25% coefficients keep a smooth image recognizable
}

TEST(DctApp, SimMatchesThreaded) {
  apps::dct::Config config{
      .width = 32, .height = 32, .block = 4, .keep_fraction = 0.25,
      .workers = 2};
  const auto a = RunThreaded(apps::dct::Register, apps::dct::kMainTask,
                             apps::dct::MakeArg(config), 2);
  const auto b = RunSim(apps::dct::Register, apps::dct::kMainTask,
                        apps::dct::MakeArg(config), 2);
  EXPECT_EQ(a, b);
}

// --- Othello -----------------------------------------------------------------

TEST(OthelloApp, ParallelMatchesSequentialDecomposition) {
  apps::othello::Config config{.depth = 5, .workers = 3, .min_tasks = 9};
  const auto seq = apps::othello::SearchDecomposed(
      apps::othello::InitialPosition(), config.depth, config.min_tasks);

  const auto result =
      RunThreaded(apps::othello::Register, apps::othello::kMainTask,
                  apps::othello::MakeArg(config), 3);
  ByteReader r(result.data(), result.size());
  std::int64_t value = 0;
  std::uint64_t nodes = 0;
  ASSERT_TRUE(r.ReadI64(&value).ok());
  ASSERT_TRUE(r.ReadU64(&nodes).ok());
  EXPECT_EQ(value, seq.value);
  EXPECT_EQ(nodes, seq.nodes);
}

TEST(OthelloApp, SimMatchesThreaded) {
  apps::othello::Config config{.depth = 4, .workers = 2, .min_tasks = 6};
  const auto a = RunThreaded(apps::othello::Register,
                             apps::othello::kMainTask,
                             apps::othello::MakeArg(config), 2);
  const auto b = RunSim(apps::othello::Register, apps::othello::kMainTask,
                        apps::othello::MakeArg(config), 2);
  EXPECT_EQ(a, b);
}

// --- Knight's Tour -----------------------------------------------------------

TEST(KnightApp, DecompositionInvariant) {
  const auto whole = apps::knight::CountWholeTree(5, 0);
  for (const int jobs : {2, 8, 32}) {
    apps::knight::Config config{
        .board = 5, .start = 0, .target_jobs = jobs, .workers = 1};
    const auto decomposed = apps::knight::CountDecomposed(config);
    EXPECT_EQ(decomposed.tours, whole.tours) << "jobs=" << jobs;
  }
}

TEST(KnightApp, ParallelMatchesSequential) {
  apps::knight::Config config{
      .board = 5, .start = 0, .target_jobs = 8, .workers = 3};
  const auto seq = apps::knight::CountDecomposed(config);

  const auto result =
      RunThreaded(apps::knight::Register, apps::knight::kMainTask,
                  apps::knight::MakeArg(config), 3);
  ByteReader r(result.data(), result.size());
  std::int64_t tours = 0;
  ASSERT_TRUE(r.ReadI64(&tours).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(tours), seq.tours);
}

TEST(KnightApp, SimMatchesThreadedTours) {
  apps::knight::Config config{
      .board = 5, .start = 0, .target_jobs = 4, .workers = 2};
  const auto a = RunThreaded(apps::knight::Register, apps::knight::kMainTask,
                             apps::knight::MakeArg(config), 2);
  const auto b = RunSim(apps::knight::Register, apps::knight::kMainTask,
                        apps::knight::MakeArg(config), 2);
  ByteReader ra(a.data(), a.size());
  ByteReader rb(b.data(), b.size());
  std::int64_t ta = 0;
  std::int64_t tb = 0;
  ASSERT_TRUE(ra.ReadI64(&ta).ok());
  ASSERT_TRUE(rb.ReadI64(&tb).ok());
  EXPECT_EQ(ta, tb);
}

}  // namespace
}  // namespace dse
