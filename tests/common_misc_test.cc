// Rng, RunningStats, SampleSet.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace dse {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // rough uniformity
}

TEST(Rng, BoolProbability) {
  Rng rng(13);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) ++trues;
  }
  EXPECT_NEAR(trues / 10000.0, 0.25, 0.03);
}

TEST(Rng, ForkedStreamIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  // Parent continues differently than the child.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.Add(3);
  RunningStats b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_EQ(s.Percentile(50), 50);
  EXPECT_EQ(s.Percentile(99), 99);
  EXPECT_EQ(s.Percentile(100), 100);
  EXPECT_EQ(s.Percentile(0), 1);
  EXPECT_EQ(s.Median(), 50);
}

}  // namespace
}  // namespace dse
