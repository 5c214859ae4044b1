// Gauss-Seidel numerics and parallel-algorithm properties.
#include <cmath>

#include <gtest/gtest.h>

#include "apps/gauss/gauss.h"
#include "common/bytes.h"
#include "dse/threaded_runtime.h"
#include "tests/threaded_nodes.h"

namespace dse::apps::gauss {
namespace {

TEST(GaussMatrix, DiagonallyDominant) {
  const int n = 200;
  for (const int i : {0, 1, 50, 199}) {
    double off = 0;
    for (int j = 0; j < n; ++j) {
      if (j != i) off += std::abs(MatrixEntry(i, j));
    }
    EXPECT_GT(std::abs(MatrixEntry(i, i)), off)
        << "row " << i << " not dominant";
  }
}

TEST(GaussMatrix, Symmetric) {
  EXPECT_EQ(MatrixEntry(3, 17), MatrixEntry(17, 3));
}

TEST(GaussMatrix, RhsMatchesExactSolution) {
  // By construction b = A x*, so the residual of x* must be ~0.
  const int n = 64;
  std::vector<double> exact(n);
  for (int i = 0; i < n; ++i) exact[static_cast<size_t>(i)] = ExactSolution(i);
  EXPECT_LT(Residual(exact), 1e-12);
}

TEST(GaussSeq, ConvergesTowardExactSolution) {
  Config c{.n = 96, .sweeps = 40, .workers = 1};
  const auto x = SolveSequential(c);
  EXPECT_LT(Residual(x), 1e-8);
  for (int i = 0; i < c.n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], ExactSolution(i), 1e-6);
  }
}

TEST(GaussSeq, ResidualDecreasesWithSweeps) {
  double prev = 1e30;
  for (const int sweeps : {1, 3, 6, 12}) {
    Config c{.n = 64, .sweeps = sweeps, .workers = 1};
    const double r = Residual(SolveSequential(c));
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(GaussSeq, ChecksumDetectsAnyBitChange) {
  Config c{.n = 32, .sweeps = 3, .workers = 1};
  auto x = SolveSequential(c);
  const auto before = Checksum(x);
  x[7] = std::nextafter(x[7], 1e30);
  EXPECT_NE(Checksum(x), before);
}

TEST(GaussSeq, WorkUnitsScaleQuadratically) {
  EXPECT_GT(SweepWorkUnits(200), 3.9 * SweepWorkUnits(100));
  EXPECT_LT(SweepWorkUnits(200), 4.1 * SweepWorkUnits(100));
}

// Parallel runs are deterministic per worker count, and converge for every
// worker count.
class GaussWorkerSweep : public ::testing::TestWithParam<int> {};

TEST_P(GaussWorkerSweep, ParallelDeterministicAndConvergent) {
  const int workers = GetParam();
  Config c{.n = 60, .sweeps = 25, .workers = workers};

  auto run = [&] {
    ThreadedRuntime rt(
        ThreadedNodes(std::min(workers, 4)));
    Register(rt.registry());
    return rt.RunMain(kMainTask, MakeArg(c));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b) << "parallel Gauss-Seidel must be schedule-independent";

  ByteReader r(a.data(), a.size());
  double residual;
  ASSERT_TRUE(r.ReadF64(&residual).ok());
  EXPECT_LT(residual, 1e-5) << workers << " workers failed to converge";
}

INSTANTIATE_TEST_SUITE_P(Workers, GaussWorkerSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(GaussConvergence, SequentialStopsAtTolerance) {
  Config c{.n = 80, .sweeps = 100, .workers = 1, .tolerance = 1e-9};
  int used = 0;
  const auto x = SolveSequential(c, &used);
  EXPECT_GT(used, 3);
  EXPECT_LT(used, 100);  // stopped early
  EXPECT_LT(Residual(x), 1e-7);
}

TEST(GaussConvergence, TighterToleranceTakesMoreSweeps) {
  Config c{.n = 64, .sweeps = 200, .workers = 1};
  int loose = 0;
  int tight = 0;
  c.tolerance = 1e-4;
  (void)SolveSequential(c, &loose);
  c.tolerance = 1e-10;
  (void)SolveSequential(c, &tight);
  EXPECT_GT(tight, loose);
}

class GaussConvergenceWorkers : public ::testing::TestWithParam<int> {};

TEST_P(GaussConvergenceWorkers, ParallelTerminatesAndConverges) {
  const int workers = GetParam();
  Config c{.n = 60, .sweeps = 200, .workers = workers, .tolerance = 1e-8};
  ThreadedRuntime rt(ThreadedNodes(std::min(workers, 4)));
  Register(rt.registry());
  const auto result = rt.RunMain(kMainTask, MakeArg(c));

  ByteReader r(result.data(), result.size());
  double residual;
  std::uint64_t checksum;
  std::int32_t sweeps_used;
  ASSERT_TRUE(r.ReadF64(&residual).ok());
  ASSERT_TRUE(r.ReadU64(&checksum).ok());
  ASSERT_TRUE(r.ReadI32(&sweeps_used).ok());
  EXPECT_LT(residual, 1e-6);
  EXPECT_GT(sweeps_used, 3);
  EXPECT_LT(sweeps_used, 200) << "never detected convergence";
}

INSTANTIATE_TEST_SUITE_P(Workers, GaussConvergenceWorkers,
                         ::testing::Values(1, 2, 3, 5));

TEST(GaussConvergence, SingleWorkerMatchesSequentialSweepCount) {
  Config c{.n = 48, .sweeps = 200, .workers = 1, .tolerance = 1e-7};
  int seq_sweeps = 0;
  const auto seq = SolveSequential(c, &seq_sweeps);

  ThreadedRuntime rt(ThreadedNodes(2));
  Register(rt.registry());
  const auto result = rt.RunMain(kMainTask, MakeArg(c));
  ByteReader r(result.data(), result.size());
  double residual;
  std::uint64_t checksum;
  std::int32_t sweeps_used;
  ASSERT_TRUE(r.ReadF64(&residual).ok());
  ASSERT_TRUE(r.ReadU64(&checksum).ok());
  ASSERT_TRUE(r.ReadI32(&sweeps_used).ok());
  EXPECT_EQ(sweeps_used, seq_sweeps);
  EXPECT_EQ(checksum, Checksum(seq));
}

TEST(GaussParallel, CacheOnMatchesCacheOff) {
  Config c{.n = 48, .sweeps = 8, .workers = 3};
  auto run = [&](bool cache) {
    ThreadedOptions opts = ThreadedNodes(3);
    opts.read_cache = cache;
    ThreadedRuntime rt(opts);
    Register(rt.registry());
    return rt.RunMain(kMainTask, MakeArg(c));
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dse::apps::gauss
