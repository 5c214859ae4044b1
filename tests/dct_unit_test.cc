// DCT-II transform math and parallel-equivalence properties.
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/dct/dct.h"
#include "common/bytes.h"
#include "dse/threaded_runtime.h"
#include "tests/threaded_nodes.h"

namespace dse::apps::dct {
namespace {

TEST(Zigzag, CoversEveryCellOnce) {
  for (const int n : {2, 4, 8, 16}) {
    const auto order = ZigZagOrder(n);
    ASSERT_EQ(order.size(), static_cast<size_t>(n * n));
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), order.size());
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n * n - 1);
  }
}

TEST(Zigzag, StartsAtDcAndWalksDiagonals) {
  const auto order = ZigZagOrder(4);
  EXPECT_EQ(order[0], 0);       // (0,0)
  EXPECT_EQ(order[1], 1);       // (0,1)
  EXPECT_EQ(order[2], 4);       // (1,0)
  EXPECT_EQ(order[3], 8);       // (2,0)
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  const int n = 8;
  std::vector<float> in(static_cast<size_t>(n) * n, 10.0f);
  std::vector<float> out(in.size());
  DctBlock(in.data(), out.data(), n);
  EXPECT_NEAR(out[0], 10.0f * n, 1e-3);  // DC = n * value (orthonormal)
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], 0.0f, 1e-3) << "AC coefficient " << i;
  }
}

TEST(Dct, InverseRecoversInput) {
  for (const int n : {4, 8, 16}) {
    std::vector<float> in(static_cast<size_t>(n) * n);
    for (size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<float>(std::sin(0.7 * static_cast<double>(i)) * 100);
    }
    std::vector<float> freq(in.size());
    std::vector<float> back(in.size());
    DctBlock(in.data(), freq.data(), n);
    IdctBlock(freq.data(), back.data(), n);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_NEAR(back[i], in[i], 0.05f);
    }
  }
}

TEST(Dct, SeparableAgreesWithDirect) {
  for (const int n : {4, 8, 16}) {
    std::vector<float> in(static_cast<size_t>(n) * n);
    for (size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<float>((i * 37 % 251)) - 125.0f;
    }
    std::vector<float> direct(in.size());
    std::vector<float> separable(in.size());
    DctBlock(in.data(), direct.data(), n);
    DctBlockSeparable(in.data(), separable.data(), n);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_NEAR(direct[i], separable[i], 0.05f) << "coefficient " << i;
    }
  }
}

TEST(Dct, EnergyPreserved) {
  // Orthonormal transform: Parseval — energy in == energy out.
  const int n = 8;
  std::vector<float> in(static_cast<size_t>(n) * n);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i % 17) - 8.0f;
  }
  std::vector<float> out(in.size());
  DctBlock(in.data(), out.data(), n);
  double ein = 0, eout = 0;
  for (const float v : in) ein += static_cast<double>(v) * v;
  for (const float v : out) eout += static_cast<double>(v) * v;
  EXPECT_NEAR(eout / ein, 1.0, 1e-3);
}

TEST(Quantize, KeepsTheRightCount) {
  const int n = 8;
  std::vector<float> block(static_cast<size_t>(n) * n, 1.0f);
  Quantize(block.data(), n, 0.25);
  int nonzero = 0;
  for (const float v : block) {
    if (v != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 16);  // ceil(0.25 * 64)
}

TEST(Quantize, KeepAllIsIdentity) {
  const int n = 4;
  std::vector<float> block(16);
  for (size_t i = 0; i < block.size(); ++i) block[i] = static_cast<float>(i);
  auto copy = block;
  Quantize(block.data(), n, 1.0);
  EXPECT_EQ(block, copy);
}

TEST(Quantize, KeepsLowFrequenciesFirst) {
  const int n = 4;
  std::vector<float> block(16, 1.0f);
  Quantize(block.data(), n, 0.2);  // keeps ceil(3.2)=4 coefficients
  // DC and the first zig-zag entries survive.
  EXPECT_NE(block[0], 0.0f);
  EXPECT_NE(block[1], 0.0f);
  EXPECT_NE(block[4], 0.0f);
  EXPECT_NE(block[8], 0.0f);
  EXPECT_EQ(block[15], 0.0f);  // highest frequency dropped
}

TEST(BlockMajor, RoundTrip) {
  const int w = 32, h = 16, bs = 8;
  Image img = MakeTestImage(w, h);
  const Image blocks = ToBlockMajor(img, w, h, bs);
  EXPECT_EQ(FromBlockMajor(blocks, w, h, bs), img);
}

TEST(BlockMajor, FirstBlockIsContiguous) {
  const int w = 8, h = 8, bs = 4;
  Image img(64);
  for (size_t i = 0; i < 64; ++i) img[i] = static_cast<float>(i);
  const Image blocks = ToBlockMajor(img, w, h, bs);
  // Block (0,0): rows 0..3, cols 0..3.
  EXPECT_EQ(blocks[0], 0.0f);
  EXPECT_EQ(blocks[1], 1.0f);
  EXPECT_EQ(blocks[4], 8.0f);   // second row of the block
  EXPECT_EQ(blocks[16], 4.0f);  // next block starts at col 4
}

TEST(Psnr, IdenticalImagesAreClean) {
  const Image img = MakeTestImage(16, 16);
  EXPECT_EQ(Psnr(img, img), 99.0);
}

TEST(Psnr, MoreCoefficientsMeanHigherPsnr) {
  Config c{.width = 32, .height = 32, .block = 8, .keep_fraction = 0.1,
           .workers = 1};
  const Image img = MakeTestImage(32, 32);
  const double low = Psnr(img, Reconstruct(c, CompressSequential(c, img)));
  c.keep_fraction = 0.5;
  const double high = Psnr(img, Reconstruct(c, CompressSequential(c, img)));
  EXPECT_GT(high, low);
}

TEST(WorkUnits, DirectGrowsQuartically) {
  EXPECT_GT(BlockWorkUnits(16), 15 * BlockWorkUnits(8));
  EXPECT_GT(BlockWorkUnits(8, true), BlockWorkUnits(8) / 20);
  EXPECT_LT(BlockWorkUnits(16, true), BlockWorkUnits(16));
}

// Parallel == sequential across block sizes, worker counts and kernels.
class DctEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(DctEquivalence, ParallelMatchesSequential) {
  const auto [block, workers, separable] = GetParam();
  Config c{.width = 32,
           .height = 32,
           .block = block,
           .keep_fraction = 0.25,
           .workers = workers,
           .separable = separable};
  const Image img = MakeTestImage(c.width, c.height);
  const Image seq = CompressSequential(c, img, separable);

  ThreadedRuntime rt(ThreadedNodes(std::min(workers, 4)));
  Register(rt.registry());
  const auto result = rt.RunMain(kMainTask, MakeArg(c));
  ByteReader r(result.data(), result.size());
  std::uint64_t checksum;
  ASSERT_TRUE(r.ReadU64(&checksum).ok());
  EXPECT_EQ(checksum, Checksum(seq));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DctEquivalence,
                         ::testing::Combine(::testing::Values(4, 8, 16),
                                            ::testing::Values(1, 3),
                                            ::testing::Bool()));

}  // namespace
}  // namespace dse::apps::dct
