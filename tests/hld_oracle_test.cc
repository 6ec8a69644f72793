#include "core/hld_oracle.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/released_state.h"
#include "core/tree_distance.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "test_util.h"

namespace dpsp {
namespace {

Result<Graph> MakeFamilyTree(int family, int n, Rng* rng) {
  switch (family) {
    case 0:
      return MakePathGraph(n);
    case 1:
      return MakeBalancedTree(n, 2);
    case 2:
      return MakeRandomTree(n, rng);
    case 3:
      return MakeStarGraph(n);
    default:
      return MakeCaterpillarTree(std::max(1, n / 4), 3);
  }
}

TEST(HldOracleTest, HighEpsilonMatchesExactDistances) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(60, &rng));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 5.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  for (VertexId u = 0; u < 60; u += 2) {
    for (VertexId v = 0; v < 60; v += 3) {
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      EXPECT_NEAR(d, exact.at(u, v), 1e-2) << u << "," << v;
    }
  }
  EXPECT_EQ(oracle->Name(), "tree-hld");
}

class HldFamilyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HldFamilyTest, AccurateAcrossFamiliesAtHighEpsilon) {
  auto [family, n] = GetParam();
  Rng rng(kTestSeed + static_cast<uint64_t>(family * 100 + n));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeFamilyTree(family, n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 3.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int v_count = g.num_vertices();
  for (int trial = 0; trial < 100; ++trial) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
    EXPECT_NEAR(d, exact.at(u, v), 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HldFamilyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(2, 17, 64, 200)));

TEST(HldOracleTest, ErrorWithinBound) {
  Rng rng(kTestSeed);
  int n = 256;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 20.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  double gamma = 0.02;
  double bound = HldTreeOracle::ErrorBound(n, params, gamma);
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int violations = 0, total = 0;
  for (int trial = 0; trial < 3; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         HldTreeOracle::Build(g, w, params, &rng));
    for (int q = 0; q < 500; ++q) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      if (std::fabs(d - exact.at(u, v)) > bound) ++violations;
      ++total;
    }
  }
  EXPECT_LT(violations, std::max(5, static_cast<int>(3 * gamma * total)));
}

TEST(HldOracleTest, ChainCountReasonable) {
  Rng rng(kTestSeed);
  // A path has 1 chain; a star has V-1 chains (one per light leaf, plus
  // the heavy one folded into the root chain).
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(50));
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(
      auto path_oracle,
      HldTreeOracle::Build(path, EdgeWeights(49, 1.0), params, &rng));
  EXPECT_EQ(path_oracle->num_chains(), 1);

  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(50));
  ASSERT_OK_AND_ASSIGN(
      auto star_oracle,
      HldTreeOracle::Build(star, EdgeWeights(49, 1.0), params, &rng));
  EXPECT_EQ(star_oracle->num_chains(), 49);
}

TEST(HldOracleTest, SymmetricAndZeroDiagonal) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeBalancedTree(63, 2));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  for (VertexId u = 0; u < 63; u += 7) {
    ASSERT_OK_AND_ASSIGN(double uu, oracle->Distance(u, u));
    EXPECT_DOUBLE_EQ(uu, 0.0);
    for (VertexId v = 0; v < 63; v += 5) {
      ASSERT_OK_AND_ASSIGN(double uv, oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double vu, oracle->Distance(v, u));
      EXPECT_DOUBLE_EQ(uv, vu);
    }
  }
}

TEST(HldOracleTest, NoiseScaleAdaptsToChainDepth) {
  // The release's sensitivity is the max chain's level count, not log V:
  // a path of 1024 pays levels(1023) = 11, a star pays 1 — the mechanism
  // exploits public topology for free (bench_tree_all_pairs E2b).
  Rng rng(kTestSeed);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto path_oracle,
      HldTreeOracle::Build(path, EdgeWeights(1023, 1.0), params, &rng));
  EXPECT_DOUBLE_EQ(path_oracle->noise_scale(), 11.0);
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto star_oracle,
      HldTreeOracle::Build(star, EdgeWeights(1023, 1.0), params, &rng));
  EXPECT_DOUBLE_EQ(star_oracle->noise_scale(), 1.0);
}

TEST(HldOracleTest, RejectsNonTrees) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(6));
  PrivacyParams params;
  EXPECT_FALSE(
      HldTreeOracle::Build(cycle, EdgeWeights(6, 1.0), params, &rng).ok());
}

TEST(HldOracleTest, ComparableErrorRegimeToRecursiveOracle) {
  // Both tree mechanisms are polylog; on the same input their mean errors
  // should be within an order of magnitude of each other.
  Rng rng(kTestSeed);
  int n = 512;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(auto hld, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(auto recursive,
                       TreeAllPairsOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport hld_report,
                       EvaluateOracleAllPairs(g, exact, *hld));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport rec_report,
                       EvaluateOracleAllPairs(g, exact, *recursive));
  EXPECT_LT(hld_report.mean_abs_error, 10.0 * rec_report.mean_abs_error);
  EXPECT_LT(rec_report.mean_abs_error, 10.0 * hld_report.mean_abs_error);
}

// The blocked batch kernel against the per-pair reference, bit for bit:
// batch sizes on both sides of the 256-pair block, before and after
// update epochs, under both dispatch modes.
class HldKernelConformanceTest : public ::testing::TestWithParam<int> {};

TEST_P(HldKernelConformanceTest, DistanceIntoMatchesPerPairDistance) {
  const int family = GetParam();
  Rng rng(kTestSeed + static_cast<uint64_t>(family));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeFamilyTree(family, 2048, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(g, w, ctx));
  const int n = g.num_vertices();
  std::vector<VertexPair> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(0, n - 1)),
                       static_cast<VertexId>(rng.UniformInt(0, n - 1)));
  }
  pairs[3] = {0, 0};
  pairs[4] = {n - 1, n - 1};
  pairs[5] = {0, n - 1};
  pairs[300] = {n - 1, 0};

  // Pairs that steer the chain climb. The oracle roots the tree at vertex
  // 0 and makes a vertex's first largest child its heavy child; a chain's
  // light depth is the number of light edges above its head.
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  std::vector<VertexId> heavy(static_cast<size_t>(n), -1);
  std::vector<VertexId> head(static_cast<size_t>(n));
  std::vector<int> light_depth(static_cast<size_t>(n), 0);
  for (VertexId v : tree.bfs_order()) {
    int best = 0;
    for (VertexId c : tree.children(v)) {
      if (tree.subtree_size(c) > best) {
        best = tree.subtree_size(c);
        heavy[static_cast<size_t>(v)] = c;
      }
    }
    const VertexId p = tree.parent(v);
    if (p == -1) {
      head[static_cast<size_t>(v)] = v;
    } else if (heavy[static_cast<size_t>(p)] == v) {
      head[static_cast<size_t>(v)] = head[static_cast<size_t>(p)];
      light_depth[static_cast<size_t>(v)] =
          light_depth[static_cast<size_t>(p)];
    } else {
      head[static_cast<size_t>(v)] = v;
      light_depth[static_cast<size_t>(v)] =
          light_depth[static_cast<size_t>(p)] + 1;
    }
  }
  auto random_vertex = [&] {
    return static_cast<VertexId>(rng.UniformInt(0, n - 1));
  };
  auto random_descendant = [&](VertexId v) {
    while (!tree.children(v).empty() && rng.Uniform() < 0.8) {
      std::span<const VertexId> children = tree.children(v);
      v = children[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(children.size()) - 1))];
    }
    return v;
  };
  for (int i = 0; i < 32; ++i) {
    // u == v, and the root against anything, in both orders.
    const VertexId x = random_vertex();
    pairs.emplace_back(x, x);
    pairs.emplace_back(0, x);
    pairs.emplace_back(x, 0);
    // An ancestor and its descendant, in both orders.
    const VertexId below = random_descendant(x);
    pairs.emplace_back(x, below);
    pairs.emplace_back(below, x);
    // Two vertices down one heavy path: the same chain.
    VertexId down = x;
    for (int64_t step = rng.UniformInt(1, 8);
         step > 0 && heavy[static_cast<size_t>(down)] != -1; --step) {
      down = heavy[static_cast<size_t>(down)];
    }
    pairs.emplace_back(x, down);
    pairs.emplace_back(down, x);
  }
  // Two children of the root, and vertices on different chains of equal
  // light depth: both endpoints climb in the same round.
  std::span<const VertexId> root_children = tree.children(0);
  for (size_t i = 0; i + 1 < root_children.size() && i < 16; ++i) {
    pairs.emplace_back(root_children[i], root_children[i + 1]);
  }
  int equal_depth_pairs = 0;
  for (int i = 0; i < 4096 && equal_depth_pairs < 64; ++i) {
    const VertexId a = random_vertex();
    const VertexId b = random_vertex();
    if (light_depth[static_cast<size_t>(a)] ==
            light_depth[static_cast<size_t>(b)] &&
        head[static_cast<size_t>(a)] != head[static_cast<size_t>(b)]) {
      pairs.emplace_back(a, b);
      ++equal_depth_pairs;
    }
  }
  if (family == 1 || family == 3) {
    ASSERT_GT(equal_depth_pairs, 0) << "family " << family;
  }

  for (int epoch = 0; epoch < 3; ++epoch) {
    if (epoch > 0) {
      std::vector<EdgeWeightDelta> deltas;
      for (int k = 0; k < 16; ++k) {
        deltas.push_back({static_cast<EdgeId>(rng.UniformInt(0, n - 2)),
                          rng.Uniform(0.1, 0.9)});
      }
      ASSERT_OK(oracle->ApplyWeightUpdates(deltas, ctx));
    }
    std::vector<double> want(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(want[i],
                           oracle->Distance(pairs[i].first, pairs[i].second));
    }
    for (size_t size :
         {size_t{1}, size_t{7}, size_t{255}, size_t{256}, size_t{257},
          size_t{1000}, pairs.size()}) {
      std::vector<double> got(size);
      ASSERT_OK(oracle->DistanceInto(
          std::span<const VertexPair>(pairs.data(), size), got.data()));
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(got[i], want[i]) << "family " << family << " epoch "
                                   << epoch << " batch " << size
                                   << " pair " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, HldKernelConformanceTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(HldKernelTest, OutOfRangeIdInSecondBlockIsTypedError) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(300, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(
      auto oracle, HldTreeOracle::Build(g, w, PrivacyParams{}, &rng));
  for (VertexPair bad : {VertexPair{5, 300}, VertexPair{-1, 5},
                         VertexPair{299, 1 << 30}}) {
    std::vector<VertexPair> pairs(600, VertexPair{1, 2});
    pairs[300] = bad;
    std::vector<double> out(pairs.size());
    Status status = oracle->DistanceInto(pairs, out.data());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad.first << "," << bad.second;
  }
}

// The "meta" scalars of a saved release, in SaveReleasedState order.
enum MetaSlot { kRoot, kNoiseScale, kSensitivity, kNoiseDraws, kEpsilon };

// Restores `oracle` from its own saved sections, with meta[slot]
// overwritten by `value` (slot < 0 leaves the snapshot untouched).
Result<std::unique_ptr<DistanceOracle>> RestoreWithMeta(
    const HldTreeOracle& oracle, const Graph& g, const EdgeWeights& w,
    int slot, double value) {
  std::vector<ReleasedSection> sections;
  DPSP_RETURN_IF_ERROR(oracle.SaveReleasedState(&sections));
  std::vector<ReleasedSectionView> views;
  for (ReleasedSection& section : sections) {
    if (section.label == "meta" && slot >= 0) {
      std::memcpy(section.bytes.data() + slot * sizeof(double), &value,
                  sizeof(double));
    }
    views.push_back({section.label, section.bytes});
  }
  return HldTreeOracle::FromReleasedState(g, w, views);
}

TEST(HldRestoreTest, RejectsMetadataTheTopologyOrCalibrationContradicts) {
  // Sensitivity and draw count are fixed by the public topology: a
  // restored sensitivity of 0 would make every later epoch charge
  // eps * g / 0 = +inf, and a wrong one misprices epochs and telemetry.
  // The noise scale must be one a release could have used.
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(64, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 3.0, &rng);
  ASSERT_OK_AND_ASSIGN(
      auto oracle, HldTreeOracle::Build(g, w, PrivacyParams{}, &rng));
  ASSERT_OK(RestoreWithMeta(*oracle, g, w, -1, 0.0).status());
  const double sensitivity = oracle->sensitivity();
  const double draws = oracle->num_noisy_values();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto [slot, value] : std::vector<std::pair<int, double>>{
           {kSensitivity, 0.0},
           {kSensitivity, sensitivity + 1.0},
           {kSensitivity, -sensitivity},
           {kNoiseDraws, 0.0},
           {kNoiseDraws, draws - 1.0},
           {kNoiseDraws, draws + 1.0},
           {kNoiseScale, 0.0},
           {kNoiseScale, -0.0},
           {kNoiseScale, -1.0},
           {kNoiseScale, inf},
           {kNoiseScale, nan}}) {
    auto restored = RestoreWithMeta(*oracle, g, w, slot, value);
    ASSERT_FALSE(restored.ok()) << "slot " << slot << " = " << value;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ReleasedStateTest, AsIntRejectsNonFiniteAndOutOfRangeBeforeCasting) {
  // Casting NaN or an out-of-range double to int is undefined behaviour,
  // so the range check must come first.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 1e300, -1e300,
                     2147483648.0, -2147483649.0, 0.5, -7.25}) {
    auto as_int = released_state::AsInt(bad, "value");
    ASSERT_FALSE(as_int.ok()) << bad;
    EXPECT_EQ(as_int.status().code(), StatusCode::kInvalidArgument);
  }
  for (double good : {0.0, -0.0, 5.0, -5.0, 2147483647.0, -2147483648.0}) {
    ASSERT_OK_AND_ASSIGN(int as_int, released_state::AsInt(good, "value"));
    EXPECT_EQ(as_int, static_cast<long long>(good));
  }
}

}  // namespace
}  // namespace dpsp
