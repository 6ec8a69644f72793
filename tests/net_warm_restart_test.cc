// Warm-restart behavior of the persistent QueryServer: a fresh boot over
// an empty directory reports itself fresh; a restart over a populated one
// recovers the ledger and every snapshotted handle (same ids, same
// bit-identical answers), refuses recovered handle names, keeps charging
// against the recovered spend, and persists update epochs so the
// post-update structure is what a later restart serves.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 16;

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "dpsp_warm_XXXXXX";
  EXPECT_NE(mkdtemp(path.data()), nullptr);
  return path;
}

std::vector<VertexPair> AllPairs(int n) {
  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

class WarmRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir();
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(graph_, MakePathGraph(kNumVertices));
    weights_ = MakeUniformWeights(*graph_, 0.1, 0.9, &rng);
  }

  std::unique_ptr<net::QueryServer> MakeServer() {
    net::QueryServerOptions options;
    options.persistence_dir = dir_;
    ReleaseContext ctx =
        ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
    auto server =
        std::make_unique<net::QueryServer>(options, std::move(ctx));
    EXPECT_OK(server->AddWorkload("path", *graph_, weights_));
    return server;
  }

  std::string dir_;
  Result<Graph> graph_ = Status::Internal("unset");
  EdgeWeights weights_;
};

TEST_F(WarmRestartTest, FreshBootOverAnEmptyDirectoryIsFresh) {
  std::unique_ptr<net::QueryServer> server = MakeServer();
  ASSERT_OK(server->Start());
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_FALSE(stats.warm_restart);
  EXPECT_EQ(stats.recovered_handles, 0u);
  EXPECT_EQ(stats.recovered_charges, 0u);
}

TEST_F(WarmRestartTest, RestartRecoversHandlesLedgerAndAnswers) {
  const std::vector<VertexPair> pairs = AllPairs(kNumVertices);
  std::vector<double> hld_before, laplace_before;
  double spent_before = 0.0;
  {
    std::unique_ptr<net::QueryServer> server = MakeServer();
    ASSERT_OK(server->Start());
    ASSERT_OK_AND_ASSIGN(net::Client client,
                         net::Client::Connect("127.0.0.1", server->port()));
    ASSERT_OK_AND_ASSIGN(net::ReleaseInfo hld,
                         client.Release("path", "tree-hld", "hld"));
    ASSERT_OK_AND_ASSIGN(
        net::ReleaseInfo laplace,
        client.Release("path", "per-pair-laplace", "laplace"));
    EXPECT_EQ(hld.handle_id, 0u);
    EXPECT_EQ(laplace.handle_id, 1u);
    ASSERT_OK_AND_ASSIGN(hld_before, client.Query(hld.handle_id, pairs));
    ASSERT_OK_AND_ASSIGN(laplace_before,
                         client.Query(laplace.handle_id, pairs));
    spent_before = server->context().SpentTotal().epsilon;
    server->Stop();
  }

  std::unique_ptr<net::QueryServer> server = MakeServer();
  ASSERT_OK(server->Start());
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_TRUE(stats.warm_restart);
  EXPECT_EQ(stats.recovered_handles, 2u);
  EXPECT_EQ(stats.recovered_charges, 2u);
  EXPECT_EQ(stats.open_handles, 2u);
  // The WAL replay certifies the same spend the first process charged.
  EXPECT_EQ(server->context().SpentTotal().epsilon, spent_before);
  // The wire-level budget position reflects the recovered ledger too.
  EXPECT_EQ(stats.spent_epsilon, spent_before);

  // Recovered handles keep their ids and answer bit-identically —
  // serving straight from the snapshots, immediately, with no rebuild
  // and no new noise.
  ASSERT_OK_AND_ASSIGN(std::vector<double> hld_after,
                       client.Query(0, pairs));
  ASSERT_OK_AND_ASSIGN(std::vector<double> laplace_after,
                       client.Query(1, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(hld_after[i], hld_before[i]) << "hld pair " << i;
    EXPECT_EQ(laplace_after[i], laplace_before[i]) << "laplace pair " << i;
  }

  // Recovered names stay taken (a release is a spend, never repeated
  // silently); fresh names keep working and charge on top.
  EXPECT_FALSE(client.Release("path", "tree-hld", "hld").ok());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo fresh,
                       client.Release("path", "tree-hld", "hld2"));
  EXPECT_EQ(fresh.handle_id, 2u);
  EXPECT_GT(server->context().SpentTotal().epsilon, spent_before);
}

TEST_F(WarmRestartTest, UpdateEpochsSurviveRestart) {
  const std::vector<VertexPair> pairs = AllPairs(kNumVertices);
  std::vector<double> updated_before;
  double spent_before = 0.0;
  {
    std::unique_ptr<net::QueryServer> server = MakeServer();
    ASSERT_OK(server->Start());
    ASSERT_OK_AND_ASSIGN(net::Client client,
                         net::Client::Connect("127.0.0.1", server->port()));
    ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                         client.Release("path", "tree-hld", "hld"));
    std::vector<EdgeWeightDelta> deltas = {{0, 0.77}, {5, 0.33}};
    ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
    ASSERT_OK_AND_ASSIGN(updated_before,
                         client.Query(info.handle_id, pairs));
    spent_before = server->context().SpentTotal().epsilon;
    server->Stop();
  }

  std::unique_ptr<net::QueryServer> server = MakeServer();
  ASSERT_OK(server->Start());
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_TRUE(stats.warm_restart);
  EXPECT_EQ(stats.recovered_handles, 1u);
  // Release + update epoch: two charges on the recovered ledger.
  EXPECT_EQ(stats.recovered_charges, 2u);
  EXPECT_EQ(server->context().SpentTotal().epsilon, spent_before);

  // The snapshot is the POST-epoch image: restart serves the updated
  // structure, not the original release.
  ASSERT_OK_AND_ASSIGN(std::vector<double> updated_after,
                       client.Query(0, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(updated_after[i], updated_before[i]) << "pair " << i;
  }
}

TEST_F(WarmRestartTest, StrayTempFilesAreSweptOnRecovery) {
  {
    std::unique_ptr<net::QueryServer> server = MakeServer();
    ASSERT_OK(server->Start());
    ASSERT_OK_AND_ASSIGN(net::Client client,
                         net::Client::Connect("127.0.0.1", server->port()));
    ASSERT_OK(client.Release("path", "tree-hld", "hld").status());
    server->Stop();
  }
  // A dead partial write from a crashed snapshotter.
  const std::string stray = dir_ + "/handle-000099.snap.tmp";
  FILE* f = fopen(stray.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("partial", f);
  fclose(f);

  std::unique_ptr<net::QueryServer> server = MakeServer();
  ASSERT_OK(server->Start());
  EXPECT_NE(access(stray.c_str(), F_OK), 0) << "stray .tmp not removed";
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_EQ(stats.recovered_handles, 1u);
}

}  // namespace
}  // namespace dpsp
