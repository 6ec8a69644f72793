// One binary, three roles — the replicated read tier as an operator
// meets it:
//
//   cluster_node coordinator
//     Budget-holding QueryServer plus a cluster::Coordinator. Prints
//     "READY query=<port> repl=<port>" and serves until killed.
//
//   cluster_node replica <repl_port> [name]
//     Ledger-less replica-mode QueryServer kept in sync by a
//     cluster::Replica subscribed to <repl_port>. Prints
//     "READY query=<port>" and serves until killed.
//
//   cluster_node drive <query_port> release <handle_name>
//     Releases tree-hld under <handle_name>; prints "HANDLE <id>".
//   cluster_node drive <query_port> update <handle_id>
//     Applies one deterministic weight-update epoch.
//   cluster_node drive <query_port> query <handle_id>
//     Prints a fixed query batch's answers in hex-float — byte-exact,
//     so `diff` across nodes IS the bit-identity check.
//   cluster_node drive <query_port> wait_lsn <lsn>
//     Polls Stats until the node's applied epoch LSN reaches <lsn>.
//
// Every node builds the same deterministic workload, so replicas can
// re-materialize shipped images locally. tools/replica_smoke.sh drives
// this binary end to end in CI.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/replica.h"
#include "common/random.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"

namespace {

constexpr int kNumVertices = 64;
constexpr uint64_t kSeed = 0x5ea1f00d2016ULL;

template <typename T>
T OrDie(dpsp::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "cluster_node: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void OrDie(const dpsp::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "cluster_node: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

struct Workload {
  dpsp::Graph graph;
  dpsp::EdgeWeights weights;
};

Workload MakeWorkload() {
  dpsp::Rng rng(kSeed);
  dpsp::Graph graph = OrDie(dpsp::MakePathGraph(kNumVertices));
  dpsp::EdgeWeights weights =
      dpsp::MakeUniformWeights(graph, 0.1, 0.9, &rng);
  return {std::move(graph), std::move(weights)};
}

[[noreturn]] void ServeForever() {
  for (;;) sleep(3600);
}

int RunCoordinator() {
  using namespace dpsp;
  Workload workload = MakeWorkload();
  ReleaseContext ctx = OrDie(
      ReleaseContext::Create(PrivacyParams{0.5, 1e-6, 1.0}, kSeed));
  ctx.SetTotalBudget(PrivacyParams{1e9, 0.5, 1.0});
  net::QueryServer server({}, std::move(ctx));
  OrDie(server.AddWorkload("path", workload.graph, workload.weights));
  OrDie(server.Start());
  cluster::Coordinator coordinator(cluster::CoordinatorOptions{}, &server);
  OrDie(coordinator.Start());
  std::printf("READY query=%u repl=%u\n", server.port(),
              coordinator.replication_port());
  std::fflush(stdout);
  ServeForever();
}

int RunReplica(uint16_t repl_port, const char* name) {
  using namespace dpsp;
  Workload workload = MakeWorkload();
  net::QueryServer server{net::QueryServerOptions{}};  // no ledger
  OrDie(server.AddWorkload("path", workload.graph, workload.weights));
  OrDie(server.Start());
  cluster::ReplicaOptions options;
  options.coordinator_port = repl_port;
  options.name = name;
  cluster::Replica replica(options, &server);
  OrDie(replica.Start());
  std::printf("READY query=%u\n", server.port());
  std::fflush(stdout);
  ServeForever();
}

int RunDrive(uint16_t port, const std::string& verb,
             const std::string& arg) {
  using namespace dpsp;
  net::Client client =
      OrDie(net::Client::Connect("127.0.0.1", port));
  if (verb == "release") {
    net::ReleaseInfo info = OrDie(client.Release("path", "tree-hld", arg));
    std::printf("HANDLE %u\n", info.handle_id);
    return 0;
  }
  if (verb == "update") {
    uint32_t handle_id = static_cast<uint32_t>(std::stoul(arg));
    // Deterministic epoch: the same edges get the same new weights no
    // matter which invocation this is.
    std::vector<EdgeWeightDelta> deltas = {{3, 0.42}, {17, 0.58}};
    OrDie(client.UpdateWeights(handle_id, deltas).status());
    std::printf("UPDATED %u\n", handle_id);
    return 0;
  }
  if (verb == "query") {
    uint32_t handle_id = static_cast<uint32_t>(std::stoul(arg));
    Rng rng(kSeed ^ 0xd21e);
    std::vector<VertexPair> pairs;
    for (int i = 0; i < 64; ++i) {
      pairs.emplace_back(
          static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1)),
          static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1)));
    }
    std::vector<double> distances = OrDie(client.Query(handle_id, pairs));
    for (size_t i = 0; i < distances.size(); ++i) {
      // %a is exact: equal output lines mean bit-identical doubles.
      std::printf("%zu %a\n", i, distances[i]);
    }
    return 0;
  }
  if (verb == "wait_lsn") {
    uint64_t target = std::stoull(arg);
    for (int i = 0; i < 200; ++i) {
      net::ServerStats stats = OrDie(client.Stats());
      if (stats.last_epoch_lsn >= target) {
        std::printf("LSN %llu\n",
                    static_cast<unsigned long long>(stats.last_epoch_lsn));
        return 0;
      }
      usleep(50000);
    }
    std::fprintf(stderr, "cluster_node: node never reached LSN %s\n",
                 arg.c_str());
    return 1;
  }
  std::fprintf(stderr, "cluster_node: unknown drive verb '%s'\n",
               verb.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "coordinator") == 0) {
    return RunCoordinator();
  }
  if (argc >= 3 && std::strcmp(argv[1], "replica") == 0) {
    return RunReplica(static_cast<uint16_t>(std::stoul(argv[2])),
                      argc >= 4 ? argv[3] : "replica");
  }
  if (argc >= 5 && std::strcmp(argv[1], "drive") == 0) {
    return RunDrive(static_cast<uint16_t>(std::stoul(argv[2])), argv[3],
                    argv[4]);
  }
  std::fprintf(stderr,
               "usage: cluster_node coordinator\n"
               "       cluster_node replica <repl_port> [name]\n"
               "       cluster_node drive <query_port> "
               "release|update|query|wait_lsn <arg>\n");
  return 2;
}
