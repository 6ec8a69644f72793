#include "core/range_sums.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(LevelsForSizeTest, Values) {
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(0), 0);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(1), 1);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(2), 2);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(3), 3);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(4), 3);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(1024), 11);
}

TEST(RangeSumsTest, EmptyVector) {
  Rng rng(kTestSeed);
  NoisyDyadicRangeSums sums({}, 1.0, &rng);
  EXPECT_EQ(sums.num_levels(), 0);
  EXPECT_EQ(sums.num_blocks(), 0);
  ASSERT_OK_AND_ASSIGN(double s, sums.RangeSum(0, 0));
  EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(RangeSumsTest, TinyNoiseRecoversExactSums) {
  Rng rng(kTestSeed);
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  NoisyDyadicRangeSums sums(values, 1e-9, &rng);
  for (int lo = 0; lo <= 7; ++lo) {
    for (int hi = lo; hi <= 7; ++hi) {
      double exact = 0.0;
      for (int i = lo; i < hi; ++i) exact += values[static_cast<size_t>(i)];
      ASSERT_OK_AND_ASSIGN(double s, sums.RangeSum(lo, hi));
      EXPECT_NEAR(s, exact, 1e-6) << lo << " " << hi;
    }
  }
}

TEST(RangeSumsTest, SegmentCountBounded) {
  Rng rng(kTestSeed);
  std::vector<double> values(1000, 1.0);
  NoisyDyadicRangeSums sums(values, 1.0, &rng);
  for (int trial = 0; trial < 200; ++trial) {
    int lo = static_cast<int>(rng.UniformInt(0, 1000));
    int hi = static_cast<int>(rng.UniformInt(lo, 1000));
    int segments = 0;
    ASSERT_OK(sums.RangeSum(lo, hi, &segments).status());
    EXPECT_LE(segments, 2 * sums.num_levels());
  }
}

TEST(RangeSumsTest, OutOfBoundsRejected) {
  Rng rng(kTestSeed);
  NoisyDyadicRangeSums sums({1.0, 2.0}, 1.0, &rng);
  EXPECT_FALSE(sums.RangeSum(-1, 1).ok());
  EXPECT_FALSE(sums.RangeSum(0, 3).ok());
  EXPECT_FALSE(sums.RangeSum(2, 1).ok());
}

TEST(RangeSumsTest, NoiseIsPerBlockNotPerQuery) {
  // Querying the same range twice returns the identical noisy value —
  // the release is a fixed object, queries are post-processing.
  Rng rng(kTestSeed);
  std::vector<double> values(64, 1.0);
  NoisyDyadicRangeSums sums(values, 5.0, &rng);
  ASSERT_OK_AND_ASSIGN(double a, sums.RangeSum(3, 37));
  ASSERT_OK_AND_ASSIGN(double b, sums.RangeSum(3, 37));
  EXPECT_DOUBLE_EQ(a, b);
}

// The greedy decomposition as first written: from each block start, probe
// up from level 0 while the next level is still aligned at lo and still
// fits in [lo, hi). Kept as the reference the O(1) level computation must
// reproduce block for block.
double ProbingRangeSum(const NoisyDyadicRangeSums& sums, int lo, int hi,
                       int* segments) {
  const NoisyDyadicRangeSums::FlatView view = sums.Flat();
  double sum = 0.0;
  while (lo < hi) {
    int level = 0;
    while (level + 1 < view.num_levels && lo % (1 << (level + 1)) == 0 &&
           lo + (1 << (level + 1)) <= hi) {
      ++level;
    }
    sum += view.blocks[view.level_offset[level] + static_cast<uint32_t>(
                                                      lo >> level)];
    ++*segments;
    lo += 1 << level;
  }
  return sum;
}

TEST(RangeSumsTest, DecompositionMatchesProbingReferenceExhaustively) {
  // Every range of every size up to 130 (past two powers of two, so the
  // top-level cap and ragged last blocks both show): the same blocks in
  // the same order means the same segment count and the same bits.
  Rng rng(kTestSeed);
  for (int m = 0; m <= 130; ++m) {
    std::vector<double> values(static_cast<size_t>(m));
    for (double& v : values) v = rng.Uniform(-5.0, 5.0);
    NoisyDyadicRangeSums sums(values, 0.7, &rng);
    for (int lo = 0; lo <= m; ++lo) {
      for (int hi = lo; hi <= m; ++hi) {
        int want_segments = 0;
        const double want = ProbingRangeSum(sums, lo, hi, &want_segments);
        int segments = 0;
        ASSERT_OK_AND_ASSIGN(double got, sums.RangeSum(lo, hi, &segments));
        ASSERT_EQ(got, want) << "m=" << m << " [" << lo << ", " << hi << ")";
        ASSERT_EQ(segments, want_segments)
            << "m=" << m << " [" << lo << ", " << hi << ")";
        ASSERT_EQ(sums.RangeSumUnchecked(lo, hi), want);
      }
    }
  }
}

TEST(RangeSumsTest, BlockCountIsLinear) {
  Rng rng(kTestSeed);
  std::vector<double> values(100, 1.0);
  NoisyDyadicRangeSums sums(values, 1.0, &rng);
  // sum over levels of ceil(100/2^l) < 2 * 100 + levels.
  EXPECT_LT(sums.num_blocks(), 2 * 100 + sums.num_levels());
}

}  // namespace
}  // namespace dpsp
