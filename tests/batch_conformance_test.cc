// Conformance suite for the batch query path: on every registered oracle,
// same-seed builds release identical answers, and a batch rejects an
// invalid pair with the same typed error as per-pair Distance(). The tree
// oracles also get a V=131072 leg, where DistanceBatch must equal
// per-pair Distance() bit for bit (EXPECT_EQ on raw doubles, no
// tolerance: both walk one IEEE operation order by construction).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

PrivacyParams ParamsFor(const OracleSpec& spec) {
  return spec.loss == LossKind::kZcdp ? PrivacyParams{0.5, 1e-6, 1.0}
                                      : PrivacyParams{1.0, 0.0, 1.0};
}

std::vector<VertexPair> AllPairs(int n) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

std::string TestId(const ::testing::TestParamInfo<std::string>& info) {
  std::string id = info.param;
  for (char& ch : id) {
    if (ch == '-') ch = '_';
  }
  return id;
}

// Every registered oracle, small canonical workload.
class BatchConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr int kNumVertices = 16;

  void SetUp() override {
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(graph_, MakePathGraph(kNumVertices));
    weights_ = MakeUniformWeights(*graph_, 0.1, 0.9, &rng);
  }

  Result<std::unique_ptr<DistanceOracle>> Build() {
    const OracleSpec* spec = OracleRegistry::Global().Find(GetParam());
    if (spec == nullptr) return Status::NotFound("unregistered oracle");
    DPSP_ASSIGN_OR_RETURN(ReleaseContext ctx,
                          ReleaseContext::Create(ParamsFor(*spec), kTestSeed));
    return OracleRegistry::Global().Create(GetParam(), *graph_, weights_,
                                           ctx);
  }

  Result<Graph> graph_ = Status::Internal("unset");
  EdgeWeights weights_;
};

TEST_P(BatchConformanceTest, SameSeedBuildsReleaseIdenticalAnswers) {
  // Builds draw noise from the seeded Rng stream only, so two same-seed
  // builds must release identical structures.
  const std::string& name = GetParam();
  std::vector<VertexPair> pairs = AllPairs(kNumVertices);
  ASSERT_OK_AND_ASSIGN(auto first, Build());
  ASSERT_OK_AND_ASSIGN(auto second, Build());
  ASSERT_OK_AND_ASSIGN(std::vector<double> a, first->DistanceBatch(pairs));
  ASSERT_OK_AND_ASSIGN(std::vector<double> b, second->DistanceBatch(pairs));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << name << " build mismatch at (" << pairs[i].first
                          << "," << pairs[i].second << ")";
  }
}

TEST_P(BatchConformanceTest, InvalidPairMidBatchMatchesPerPairError) {
  // A full batch with one invalid pair buried mid-stream and another at
  // the end: the batch must reject with the status per-pair Distance()
  // gives for either, however far its main loop advanced.
  const std::string& name = GetParam();
  ASSERT_OK_AND_ASSIGN(auto oracle, Build());
  const VertexPair mid{0, kNumVertices + 3};
  const VertexPair tail{-1, 0};
  std::vector<VertexPair> bad = AllPairs(kNumVertices);
  bad[bad.size() / 2] = mid;
  bad.push_back(tail);

  Result<double> mid_single = oracle->Distance(mid.first, mid.second);
  Result<double> tail_single = oracle->Distance(tail.first, tail.second);
  ASSERT_FALSE(mid_single.ok()) << name;
  ASSERT_FALSE(tail_single.ok()) << name;
  EXPECT_EQ(mid_single.status().code(), tail_single.status().code()) << name;
  EXPECT_EQ(mid_single.status().message(), tail_single.status().message())
      << name;

  Result<std::vector<double>> batch = oracle->DistanceBatch(bad);
  ASSERT_FALSE(batch.ok()) << name;
  EXPECT_EQ(batch.status().code(), mid_single.status().code()) << name;
  EXPECT_EQ(batch.status().message(), mid_single.status().message()) << name;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredOracles, BatchConformanceTest,
                         ::testing::ValuesIn(OracleRegistry::Global().Names()),
                         TestId);

// Scale case: the tree oracles' batch kernels on a V=131072 path (deep
// LCA sparse table, one long heavy chain) and a random tree.
class BatchLargeScaleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchLargeScaleTest, LargeTreeBatchEqualsPerPairDistance) {
  const std::string& name = GetParam();
  constexpr int kBigV = 131072;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(kBigV));
  ASSERT_OK_AND_ASSIGN(Graph random_tree, MakeRandomTree(kBigV, &rng));

  for (const Graph* g : {&path, &random_tree}) {
    EdgeWeights w = MakeUniformWeights(*g, 0.0, 10.0, &rng);
    ASSERT_OK_AND_ASSIGN(
        ReleaseContext ctx,
        ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         OracleRegistry::Global().Create(name, *g, w, ctx));
    std::vector<VertexPair> pairs;
    pairs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(0, kBigV - 1)),
                         static_cast<VertexId>(rng.UniformInt(0, kBigV - 1)));
    }
    ASSERT_OK_AND_ASSIGN(std::vector<double> batch,
                         oracle->DistanceBatch(pairs));
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(double single,
                           oracle->Distance(pairs[i].first, pairs[i].second));
      ASSERT_EQ(batch[i], single)
          << name << " at V=" << kBigV << " pair index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TreeOracles, BatchLargeScaleTest,
                         ::testing::Values("tree-recursive", "tree-hld"),
                         TestId);

}  // namespace
}  // namespace dpsp
