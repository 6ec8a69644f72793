// Tests for the sharded batch execution engine: contiguous sharding must
// produce results bit-identical to the serial DistanceInto reference path
// across all registered mechanisms.

#include "serve/batch_executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/bounded_weight.h"
#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 32;  // even path: satisfies every input family

std::vector<VertexPair> SampleTestPairs(int n, int count, Rng* rng) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  while (static_cast<int>(pairs.size()) < count) {
    auto u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    auto v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    pairs.emplace_back(u, v);
  }
  return pairs;
}

class ExecutorConformanceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ExecutorConformanceTest, ShardedBitIdenticalToSerial) {
  const std::string& name = GetParam();
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(kNumVertices));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  // A zCDP-metered (Gaussian-calibrated) mechanism needs approximate
  // params with eps < 1; everything else runs at the pure default.
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  PrivacyParams params = spec->loss == LossKind::kZcdp
                             ? PrivacyParams{0.5, 1e-6, 1.0}
                             : PrivacyParams{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle, OracleRegistry::Global().Create(name, g, w, ctx));

  // Three chunks of at least 2048 pairs each, so the fan-out is real.
  std::vector<VertexPair> pairs =
      SampleTestPairs(kNumVertices, 3 * 2048 + 100, &rng);
  // Serial reference: one DistanceInto over the whole span.
  ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                       DistanceBatchOf(*oracle, pairs, /*max_threads=*/1));

  // Contiguous shards, forced fan-out, and the executor's own split.
  ASSERT_EQ(ParallelWorkerCount(pairs.size(), /*max_threads=*/4), 3);
  ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                       DistanceBatchOf(*oracle, pairs, /*max_threads=*/4));
  BatchExecutor executor;
  ASSERT_OK_AND_ASSIGN(std::vector<double> executed,
                       executor.Execute(*oracle, pairs));
  ASSERT_EQ(sharded.size(), serial.size());
  ASSERT_EQ(executed.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << name << " at pair " << i;
    EXPECT_EQ(executed[i], serial[i]) << name << " at pair " << i;
  }

  // Errors propagate from shard kernels.
  std::vector<VertexPair> bad = pairs;
  bad[bad.size() / 2] = {0, kNumVertices + 5};
  EXPECT_FALSE(DistanceBatchOf(*oracle, bad, /*max_threads=*/4).ok());
  EXPECT_FALSE(executor.Execute(*oracle, bad).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredOracles, ExecutorConformanceTest,
    ::testing::ValuesIn(OracleRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

TEST(BatchExecutorTest, ParallelBoundedWeightBuildIsThreadCountInvariant) {
  Rng data_rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(10, 10));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 1.0, &data_rng);
  BoundedWeightOptions serial_options;
  serial_options.params = PrivacyParams{1.0, 0.0, 1.0};
  serial_options.k = 3;
  serial_options.build_threads = 1;
  BoundedWeightOptions parallel_options = serial_options;
  parallel_options.build_threads = 8;

  // Same noise seed => the released tables must match exactly: the
  // Dijkstra fan-out happens before any noise is drawn.
  Rng rng_a(kTestSeed + 1);
  Rng rng_b(kTestSeed + 1);
  ASSERT_OK_AND_ASSIGN(auto serial_oracle,
                       BoundedWeightOracle::Build(g, w, serial_options,
                                                  &rng_a));
  ASSERT_OK_AND_ASSIGN(auto parallel_oracle,
                       BoundedWeightOracle::Build(g, w, parallel_options,
                                                  &rng_b));
  for (VertexId u = 0; u < 100; u += 7) {
    for (VertexId v = 0; v < 100; v += 11) {
      ASSERT_OK_AND_ASSIGN(double a, serial_oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double b, parallel_oracle->Distance(u, v));
      EXPECT_EQ(a, b) << "(" << u << "," << v << ")";
    }
  }
}

TEST(BatchExecutorTest, EmptyBatchAndTinyBatchCollapse) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("exact", g, w, ctx));

  BatchExecutor executor;  // at least 2048 pairs per shard
  ASSERT_OK_AND_ASSIGN(std::vector<double> empty,
                       executor.Execute(*oracle, {}));
  EXPECT_TRUE(empty.empty());

  // A tiny batch stays on one shard (no fan-out overhead).
  EXPECT_EQ(executor.PlannedShardCount(16), 1);
  std::vector<VertexPair> pairs = {{0, 7}, {3, 4}};
  ASSERT_OK_AND_ASSIGN(std::vector<double> out,
                       executor.Execute(*oracle, pairs));
  ASSERT_OK_AND_ASSIGN(double d07, oracle->Distance(0, 7));
  EXPECT_EQ(out[0], d07);
}

TEST(BatchExecutorTest, DegenerateBatchesAreWellDefinedOnEveryPath) {
  // Regression: empty and single-element batches must produce well-defined
  // results with no worker spawn on every execution path — the parallel
  // DistanceBatch, the forced-serial reference, and the executor (an
  // empty vector's data() is null, so any path that blindly hands the
  // kernel a pointer would be UB).
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("exact", g, w, ctx));
  ASSERT_OK_AND_ASSIGN(double reference, oracle->Distance(2, 6));
  std::vector<VertexPair> single = {{2, 6}};

  // Oracle-level batch APIs.
  ASSERT_OK_AND_ASSIGN(std::vector<double> empty_batch,
                       oracle->DistanceBatch({}));
  EXPECT_TRUE(empty_batch.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<double> single_batch,
                       oracle->DistanceBatch(single));
  ASSERT_EQ(single_batch.size(), 1u);
  EXPECT_EQ(single_batch[0], reference);
  ASSERT_OK_AND_ASSIGN(std::vector<double> forced_parallel,
                       DistanceBatchOf(*oracle, single, /*max_threads=*/8));
  EXPECT_EQ(forced_parallel[0], reference);

  // The executor: degenerate batches collapse to the inline path.
  BatchExecutor contiguous;
  EXPECT_EQ(contiguous.PlannedShardCount(0), 1);
  ASSERT_OK_AND_ASSIGN(std::vector<double> exec_empty,
                       contiguous.Execute(*oracle, {}));
  EXPECT_TRUE(exec_empty.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<double> exec_single,
                       contiguous.Execute(*oracle, single));
  ASSERT_EQ(exec_single.size(), 1u);
  EXPECT_EQ(exec_single[0], reference);

  // A single INVALID pair still reports the kernel's error, not UB.
  std::vector<VertexPair> bad = {{0, 99}};
  EXPECT_FALSE(contiguous.Execute(*oracle, bad).ok());
  EXPECT_FALSE(DistanceBatchOf(*oracle, bad, 1).ok());
}

}  // namespace
}  // namespace dpsp
