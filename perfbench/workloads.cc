// The three workloads of the serving benchmark (README.md has the why):
//
//   hld-bulk           tree-hld on a random tree, V=131072, 16384 uniform
//                      pairs per batch, 2 closed-loop connections.
//   small-batch        bounded-weight on a 64x64 grid, 64 Zipf-skewed
//                      pairs per batch from a fixed pool, 4 closed-loop
//                      connections.
//   update-replicated  tree-hld on a caterpillar, V=131072, persistent
//                      coordinator + one in-process replica; one writer
//                      (paced leaf-edge epochs and fresh releases), 2
//                      closed-loop query connections, 1 lag observer.
//
// Every workload sets up several times and reports the median set-up,
// measures for the requested seconds with tracing off (or, in a traced
// run, half off and half on), then checks sampled wire answers bit for
// bit against a local OracleRegistry replay with the same seeds and the
// same release order, and the ledger against the charges it was told.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/replica.h"
#include "common/random.h"
#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dpsp::EdgeWeightDelta;
using dpsp::OracleRegistry;
using dpsp::ReleaseContext;
using dpsp::Rng;
using dpsp::net::Client;

constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr const char* kLocalhost = "127.0.0.1";

// hld-bulk
constexpr int kBulkVertices = 131072;
constexpr int kBulkPairsPerBatch = 16384;
constexpr int kBulkConnections = 2;

// small-batch
constexpr int kGridSide = 64;
constexpr int kSmallPairsPerBatch = 64;
constexpr int kSmallConnections = 4;
constexpr int kSmallPoolPairs = 4096;
constexpr double kSmallZipfExponent = 1.0;

// update-replicated
constexpr int kCaterpillarSpine = 16384;
constexpr int kCaterpillarLegs = 7;
constexpr int kFreshSpine = 1024;  // the cadence releases' workload
constexpr int kReplQueryPairsPerBatch = 4096;
constexpr int kReplQueryConnections = 2;
constexpr int kDeltasPerEpoch = 64;
constexpr double kEpochsPerSec = 5.0;
constexpr double kReleasesPerSec = 1.0;
constexpr int kCheckPairs = 256;
constexpr int kReplicaCheckEvery = 5;  // epochs between replica checks

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

dpsp::net::ClientOptions LoadClientOptions() {
  dpsp::net::ClientOptions options;
  options.request_timeout_ms = 10000;  // a hang counts as a failure
  options.max_retries = 3;             // kOverloaded only, with backoff
  return options;
}

std::string ClientErrorText(const Client& client, const dpsp::Status& s) {
  std::string text = s.ToString();
  if (client.last_error()) {
    text += std::string(" [") +
            dpsp::net::ErrorKindName(client.last_error()->kind) + "]";
  }
  return text;
}

/// The measurement window. In a traced run the first half is untraced and
/// the second traced (the difference is the tracing overhead).
struct Window {
  int64_t start_ns = 0;
  int64_t mid_ns = 0;
  int64_t end_ns = 0;
  bool traced = false;

  static Window Make(const Options& options) {
    Window w;
    w.start_ns = NowNs() + SecondsToNs(0.05);
    w.end_ns = w.start_ns + SecondsToNs(options.seconds);
    w.traced = options.trace;
    w.mid_ns = w.traced ? w.start_ns + (w.end_ns - w.start_ns) / 2
                        : w.end_ns;
    return w;
  }
  /// Blocks until the end, switching tracing on at the midpoint.
  void Drive() const {
    if (traced) {
      SleepUntilNs(mid_ns);
      Tracer::Get().Enable(true);
    }
    SleepUntilNs(end_ns);
  }
};

/// Round-trip histogram with 64 log-linear buckets per power of two from
/// 1 us, so a percentile is within about 1% and the load generator's
/// memory does not grow with the number of requests (peak_rss_mb would
/// otherwise count the generator's own sample buffers).
class LatencyHistogram {
 public:
  void Add(double ms) {
    ++counts_[Bucket(ms)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  /// The q-quantile, interpolated by rank inside its bucket; warns on
  /// stderr when fewer than ten samples lie beyond it.
  double Quantile(double q, const char* what) const {
    if (static_cast<double>(count_) * (1.0 - q) < 10.0) {
      std::fprintf(stderr, "perfbench: %s: only %llu samples, fewer than ten "
                   "beyond the %.0fth percentile\n", what,
                   static_cast<unsigned long long>(count_), q * 100.0);
    }
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (static_cast<double>(before + counts_[i]) > rank) {
        const double within =
            (rank - static_cast<double>(before) + 0.5) /
            static_cast<double>(counts_[i]);
        const int octave = static_cast<int>(i) / kSub;
        const int sub = static_cast<int>(i) % kSub;
        return 1e-3 * std::ldexp(1.0 + (sub + within) / kSub, octave);
      }
      before += counts_[i];
    }
    return 0.0;
  }

 private:
  static constexpr int kSub = 64;
  static constexpr int kOctaves = 40;  // 1 us .. about 12 days
  static size_t Bucket(double ms) {
    const double us = std::max(ms * 1e3, 1.0);
    int octave = 0;
    const double mantissa = std::frexp(us, &octave) * 2.0;  // [1, 2)
    octave = std::min(octave - 1, kOctaves - 1);
    const int sub = std::min(static_cast<int>((mantissa - 1.0) * kSub), kSub - 1);
    return static_cast<size_t>(octave * kSub + sub);
  }
  std::array<uint64_t, kOctaves * kSub> counts_{};
  uint64_t count_ = 0;
};

/// Generates batch `k` of connection `conn` (a pure function of both).
using BatchFn =
    std::function<void(int conn, uint64_t k, std::vector<VertexPair>* out)>;

/// Uniform pairs u != v over [0, n): pair i of batch k of connection c is
/// splitmix64 of (seed, c, k, i), so batches are generated on the fly and
/// never repeat a pool.
BatchFn UniformBatches(uint64_t seed, int n, int pairs_per_batch) {
  return [=](int conn, uint64_t k, std::vector<VertexPair>* out) {
    out->resize(static_cast<size_t>(pairs_per_batch));
    const uint64_t base = seed ^ (static_cast<uint64_t>(conn + 1) << 56) ^
                          (k << 24);
    for (int i = 0; i < pairs_per_batch; ++i) {
      const uint64_t h = Mix64(base + static_cast<uint64_t>(i));
      int u = static_cast<int>((h & 0xffffffffu) % static_cast<uint64_t>(n));
      int v = static_cast<int>((h >> 32) % static_cast<uint64_t>(n));
      if (u == v) v = (v + 1) % n;
      (*out)[static_cast<size_t>(i)] = {u, v};
    }
  };
}

/// What one load connection did.
struct ConnResult {
  /// Round trips of batches sent before the window's midpoint (all of
  /// them in an untraced run) and after it.
  LatencyHistogram untraced;
  LatencyHistogram traced;
  /// When the last answer to an untraced-half batch arrived.
  int64_t untraced_last_ns = 0;
  uint64_t batches = 0;
  uint64_t retries = 0;
  /// Answers kept for the correctness check, with their batch index.
  std::vector<std::pair<uint64_t, std::vector<double>>> saved;
};

struct QueryLoad {
  uint16_t port = 0;
  uint32_t handle = 0;
  int connections = 1;
  BatchFn make_batch;
  uint64_t save_stride = 64;
  size_t max_saved = 16;
};

/// One closed-loop load connection: sends the next batch when the last
/// one returns, until the window ends. Failures are counted and the
/// connection is re-dialed.
void RunQueryConnection(const QueryLoad& load, const Window& window, int c,
                        OpLedger* ops, ConnResult* out) {
  std::optional<Client> client;
  std::vector<VertexPair> batch;
  SleepUntilNs(window.start_ns);
  for (uint64_t k = 0;; ++k) {
    load.make_batch(c, k, &batch);
    const int64_t t0 = NowNs();
    if (t0 >= window.end_ns) break;
    ops->Attempt();
    if (!client.has_value() || client->broken()) {
      auto dialed = Client::Connect(kLocalhost, load.port, LoadClientOptions());
      if (!dialed.ok()) {
        ops->Fail("connect: " + dialed.status().ToString());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (client.has_value()) out->retries += client->retries_performed();
      client.emplace(std::move(dialed).value());
    }
    dpsp::Result<std::vector<double>> answers = [&] {
      Span span("net.Client.Query",
                (static_cast<uint64_t>(c + 1) << 40) | (k + 1));
      return client->Query(load.handle, batch);
    }();
    const int64_t t1 = NowNs();
    if (!answers.ok()) {
      ops->Fail("query: " + ClientErrorText(*client, answers.status()));
      continue;
    }
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    if (t0 < window.mid_ns) {
      out->untraced.Add(ms);
      out->untraced_last_ns = t1;
    } else {
      out->traced.Add(ms);
    }
    ++out->batches;
    if (k % load.save_stride == 0 && out->saved.size() < load.max_saved) {
      out->saved.emplace_back(k, std::move(answers).value());
    }
  }
  if (client.has_value()) out->retries += client->retries_performed();
}

std::vector<ConnResult> RunQueryLoad(const QueryLoad& load,
                                     const Window& window, OpLedger* ops) {
  std::vector<ConnResult> results(static_cast<size_t>(load.connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < load.connections; ++c) {
    threads.emplace_back(RunQueryConnection, std::cref(load),
                         std::cref(window), c, ops,
                         &results[static_cast<size_t>(c)]);
  }
  window.Drive();
  for (std::thread& t : threads) t.join();
  return results;
}

/// Fills the query end-to-end metrics from the untraced part of the
/// window, and in a traced run the tracing overhead and the traced
/// window's median round trip.
void ReportQueries(const std::vector<ConnResult>& results,
                   const Window& window, size_t pairs_per_batch,
                   Outcome* out, double* traced_median_rtt_us) {
  LatencyHistogram untraced, traced;
  int64_t last_ns = window.start_ns + 1;
  uint64_t retries = 0;
  for (const ConnResult& r : results) {
    untraced.Merge(r.untraced);
    traced.Merge(r.traced);
    last_ns = std::max(last_ns, r.untraced_last_ns);
    retries += r.retries;
  }
  // Throughput: pairs answered from the window's start to the last answer.
  const double pairs_per_s =
      static_cast<double>(untraced.count() * pairs_per_batch) /
      (static_cast<double>(last_ns - window.start_ns) * 1e-9);
  const double p50 = untraced.Quantile(0.50, "query_p50_ms");
  const double p90 = untraced.Quantile(0.90, "query_p90_ms");
  const double p99 = untraced.Quantile(0.99, "query_p99_ms");
  std::printf("query: %llu batches; %.6g pairs/s, p50 %.6g ms, p90 %.6g ms, "
              "p99 %.6g ms\n",
              static_cast<unsigned long long>(untraced.count()), pairs_per_s,
              p50, p90, p99);
  out->end_to_end["query_pairs_per_s"] = {pairs_per_s, "1/s"};
  out->end_to_end["query_p50_ms"] = {p50, "ms"};
  // The tails are per-layer numbers: on this benchmark's host their
  // run-to-run spread (see README.md) is wider than any usable bound.
  out->layers["query_p90_ms"] = {p90, "ms"};
  out->layers["query_p99_ms"] = {p99, "ms"};
  out->layers["net.client_retries"] = {static_cast<double>(retries),
                                       "count"};
  if (window.traced) {
    const double traced_p50 = traced.Quantile(0.50, "traced query_p50_ms");
    out->layers["trace.overhead_pct"] = {
        p50 > 0 ? (traced_p50 / p50 - 1.0) * 100.0 : 0.0, "%"};
    *traced_median_rtt_us = traced_p50 * 1e3;
  }
}

/// Share of the first (up to) 2^21 pairs sent that repeat an earlier one,
/// regenerated from the batch functions in send order per connection.
double RepeatPairShare(const std::vector<ConnResult>& results,
                       const BatchFn& make_batch) {
  constexpr size_t kMaxPairs = size_t{1} << 21;
  std::vector<uint64_t> keys;
  std::vector<VertexPair> batch;
  for (size_t c = 0; c < results.size() && keys.size() < kMaxPairs; ++c) {
    const uint64_t batches = results[c].batches;
    for (uint64_t k = 0; k < batches && keys.size() < kMaxPairs; ++k) {
      make_batch(static_cast<int>(c), k, &batch);
      for (const VertexPair& p : batch) {
        keys.push_back((static_cast<uint64_t>(p.first) << 32) |
                       static_cast<uint32_t>(p.second));
      }
    }
  }
  if (keys.empty()) return 0.0;
  const size_t total = keys.size();
  std::sort(keys.begin(), keys.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  return 1.0 - static_cast<double>(distinct) / static_cast<double>(total);
}

/// Compares every kept wire answer against the local replay oracle.
void CheckSavedAnswers(const std::vector<ConnResult>& results,
                       const BatchFn& make_batch,
                       const dpsp::DistanceOracle& local, Checks* checks) {
  std::vector<VertexPair> batch;
  for (size_t c = 0; c < results.size(); ++c) {
    for (const auto& [k, answers] : results[c].saved) {
      make_batch(static_cast<int>(c), k, &batch);
      std::vector<double> expected(batch.size());
      const dpsp::Status s = local.DistanceInto(batch, expected.data());
      checks->Expect(s.ok() && SameBits(answers, expected),
                     "wire answers of connection " + std::to_string(c) +
                         " batch " + std::to_string(k) +
                         " differ from the local replay");
    }
  }
}

/// Runs `make` at least kMinSetups times and until set-up has taken two
/// seconds in total (at most kMaxSetups), keeps the last deployment, and
/// returns the median set-up time in seconds.
template <typename Deployment, typename Make>
std::unique_ptr<Deployment> RepeatSetup(Make make, double* median_s) {
  std::vector<double> seconds;
  double total = 0.0;
  std::unique_ptr<Deployment> kept;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total < 2.0); ++i) {
    kept.reset();  // tear the previous one down before timing the next
    const int64_t t0 = NowNs();
    kept = make(i);
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    total += seconds.back();
  }
  *median_s = Median(seconds);
  std::printf("setup: median %.6g s over %zu set-ups\n", *median_s,
              seconds.size());
  return kept;
}

/// A single-node deployment: one budget-holding server, one release.
struct Standalone {
  Standalone(Graph g, EdgeWeights w)
      : graph(std::move(g)), weights(std::move(w)) {}
  Graph graph;
  EdgeWeights weights;
  std::unique_ptr<dpsp::net::QueryServer> server;
  dpsp::net::ReleaseInfo release;
  ~Standalone() {
    if (server) server->Stop();
  }
};

std::unique_ptr<Standalone> SetUpStandalone(Graph graph, EdgeWeights weights,
                                            const std::string& mechanism,
                                            uint64_t noise_seed) {
  auto d = std::make_unique<Standalone>(std::move(graph), std::move(weights));
  ReleaseContext ctx = Must(
      ReleaseContext::Create(ReleaseParams(), noise_seed), "release context");
  ctx.SetTotalBudget(TotalBudget());
  d->server = std::make_unique<dpsp::net::QueryServer>(
      dpsp::net::QueryServerOptions{}, std::move(ctx));
  Must(d->server->AddWorkload("g", d->graph, d->weights), "add workload");
  Must(d->server->Start(), "server start");
  Client admin = Must(Client::Connect(kLocalhost, d->server->port()),
                      "admin connect");
  d->release = Must(admin.Release("g", mechanism, "h0"), "release");
  return d;
}

/// Ledger check: the spent epsilon Stats reports over the wire equals
/// `charged`, the sum of the charges the responses reported, in ledger
/// order. Also reads the server's overload counter.
void CheckLedger(uint16_t port, double charged, Outcome* out) {
  out->ops.Attempt();
  auto admin = Client::Connect(kLocalhost, port);
  dpsp::Result<dpsp::net::ServerStats> stats =
      admin.ok() ? admin->Stats()
                 : dpsp::Result<dpsp::net::ServerStats>(admin.status());
  out->layers["net.overload_rejected"] = {0.0, "count"};
  if (!stats.ok()) {
    out->ops.Fail("stats: " + stats.status().ToString());
    return;
  }
  out->checks.Expect(stats->spent_epsilon == charged,
                     "ledger spent epsilon != sum of reported charges");
  out->layers["net.overload_rejected"] = {
      static_cast<double>(stats->overload_rejected), "count"};
}

/// failed_ratio and the pair-repeat share of the load.
void ReportLoadShape(const QueryLoad& load,
                     const std::vector<ConnResult>& results, Outcome* out) {
  const double attempted = static_cast<double>(out->ops.attempted());
  out->layers["failed_ratio"] = {
      attempted > 0 ? static_cast<double>(out->ops.failed()) / attempted
                    : 0.0,
      "ratio"};
  out->layers["loadgen.repeat_pair_share"] = {
      RepeatPairShare(results, load.make_batch), "ratio"};
}

/// The query-path probe over the workload's own first batches.
void ProbeQueryPathOf(const QueryLoad& load,
                      const dpsp::DistanceOracle& oracle,
                      double traced_rtt_us, MetricSet* layers) {
  QueryPathProbe probe;
  probe.oracle = &oracle;
  probe.connections = load.connections;
  probe.port = load.port;
  probe.median_query_rtt_us = traced_rtt_us;
  for (uint64_t k = 0; k < 8; ++k) {
    probe.batches.emplace_back();
    load.make_batch(0, k, &probe.batches.back());
  }
  ProbeQueryPath(probe, layers);
}

/// The shared tail of the two read-only workloads: ledger and answer
/// checks, then (traced run) the layer probes.
void FinishReadOnly(const Options& options, const Seeds& seeds,
                    const std::string& mechanism, const Standalone& d,
                    const QueryLoad& load,
                    const std::vector<ConnResult>& results,
                    const Window& window, size_t pairs_per_batch,
                    double setup_s, Outcome* out) {
  out->end_to_end["setup_s"] = {setup_s, "s"};
  out->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  double traced_rtt_us = 0.0;
  ReportQueries(results, window, pairs_per_batch, out, &traced_rtt_us);
  Tracer::Get().Enable(false);

  // Ledger: spent epsilon over the wire equals the one release's charge.
  CheckLedger(d.server->port(), d.release.epsilon, out);

  // Local replay: the same seeds and release order give the same oracle.
  ReleaseContext ctx = Must(
      ReleaseContext::Create(ReleaseParams(), seeds.noise), "replay context");
  ctx.SetTotalBudget(TotalBudget());
  auto local = Must(
      OracleRegistry::Global().Create(mechanism, d.graph, d.weights, ctx),
      "local replay");
  CheckSavedAnswers(results, load.make_batch, *local, &out->checks);
  ReportLoadShape(load, results, out);
  if (!options.trace) return;

  Tracer::Get().Enable(true);
  ProbeQueryPathOf(load, *local, traced_rtt_us, &out->layers);
  ProbeReleasePath(mechanism, d.graph, d.weights, seeds.noise, &out->layers);
  ProbeStorePath(*local, mechanism, d.graph, d.weights, options.work_dir,
                 &out->layers);
  ZeroWriteLayers(&out->layers);
  out->layers["loadgen.late_p99_ms"] = {0.0, "ms"};  // no paced sender
  SplitQuerySpansByWrites(&out->layers);
}

}  // namespace

void RunHldBulk(const Options& options, const Seeds& seeds, Outcome* out) {
  double setup_s = 0.0;
  auto d = RepeatSetup<Standalone>(
      [&](int) {
        Rng data(seeds.data);
        Graph g = Must(dpsp::MakeRandomTree(kBulkVertices, &data), "tree");
        EdgeWeights w = dpsp::MakeUniformWeights(g, 0.1, 0.9, &data);
        return SetUpStandalone(std::move(g), std::move(w), "tree-hld",
                               seeds.noise);
      },
      &setup_s);
  QueryLoad load;
  load.port = d->server->port();
  load.handle = d->release.handle_id;
  load.connections = kBulkConnections;
  load.make_batch =
      UniformBatches(seeds.pairs, kBulkVertices, kBulkPairsPerBatch);
  load.save_stride = 64;
  const Window window = Window::Make(options);
  std::vector<ConnResult> results = RunQueryLoad(load, window, &out->ops);
  FinishReadOnly(options, seeds, "tree-hld", *d, load, results, window,
                 kBulkPairsPerBatch, setup_s, out);
}

void RunSmallBatch(const Options& options, const Seeds& seeds,
                   Outcome* out) {
  double setup_s = 0.0;
  auto d = RepeatSetup<Standalone>(
      [&](int) {
        Rng data(seeds.data);
        Graph g = Must(dpsp::MakeGridGraph(kGridSide, kGridSide), "grid");
        EdgeWeights w = dpsp::MakeUniformWeights(g, 0.1, 0.9, &data);
        return SetUpStandalone(std::move(g), std::move(w), "bounded-weight",
                               seeds.noise);
      },
      &setup_s);

  // A fixed pool of uniform pairs; batches draw pool ranks Zipf-skewed,
  // so hot pairs repeat across batches and connections.
  const int n = kGridSide * kGridSide;
  std::vector<VertexPair> pool;
  UniformBatches(seeds.pairs, n, kSmallPoolPairs)(0, 0, &pool);
  auto cdf = std::make_shared<std::vector<double>>(kSmallPoolPairs);
  double total = 0.0;
  for (int r = 0; r < kSmallPoolPairs; ++r) {
    total += 1.0 / std::pow(r + 1.0, kSmallZipfExponent);
    (*cdf)[static_cast<size_t>(r)] = total;
  }
  for (double& x : *cdf) x /= total;
  const uint64_t draw_seed = Mix64(seeds.pairs ^ 0x21f);
  QueryLoad load;
  load.port = d->server->port();
  load.handle = d->release.handle_id;
  load.connections = kSmallConnections;
  load.make_batch = [pool, cdf, draw_seed](int conn, uint64_t k,
                                           std::vector<VertexPair>* batch) {
    batch->resize(kSmallPairsPerBatch);
    const uint64_t base = draw_seed ^
                          (static_cast<uint64_t>(conn + 1) << 56) ^ (k << 8);
    for (int i = 0; i < kSmallPairsPerBatch; ++i) {
      const double x =
          static_cast<double>(Mix64(base + static_cast<uint64_t>(i)) >> 11) *
          0x1.0p-53;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf->begin(), cdf->end(), x) - cdf->begin());
      (*batch)[static_cast<size_t>(i)] =
          pool[std::min(rank, pool.size() - 1)];
    }
  };
  load.save_stride = 1024;
  const Window window = Window::Make(options);
  std::vector<ConnResult> results = RunQueryLoad(load, window, &out->ops);
  FinishReadOnly(options, seeds, "bounded-weight", *d, load, results,
                 window, kSmallPairsPerBatch, setup_s, out);
}

// ------------------------------------------------------ update-replicated --
namespace {

/// Coordinator (persistent, budget-holding) + one replica, in process.
struct Replicated {
  Replicated(Graph g, EdgeWeights w, Graph fg, EdgeWeights fw)
      : graph(std::move(g)),
        weights(std::move(w)),
        fresh_graph(std::move(fg)),
        fresh_weights(std::move(fw)) {}
  Graph graph;          // the caterpillar the live handle serves
  EdgeWeights weights;
  Graph fresh_graph;    // the cadence releases' workload
  EdgeWeights fresh_weights;
  std::vector<dpsp::EdgeId> leaf_edges;
  std::string persistence_dir;
  std::unique_ptr<dpsp::net::QueryServer> server;
  std::unique_ptr<dpsp::cluster::Coordinator> coordinator;
  std::unique_ptr<dpsp::net::QueryServer> replica_server;
  std::unique_ptr<dpsp::cluster::Replica> replica;
  dpsp::net::ReleaseInfo release;

  ~Replicated() {
    if (replica) replica->Stop();
    if (replica_server) replica_server->Stop();
    if (coordinator) coordinator->Stop();
    if (server) server->Stop();
    std::error_code ec;
    if (!persistence_dir.empty()) fs::remove_all(persistence_dir, ec);
  }
};

std::unique_ptr<Replicated> SetUpReplicated(const Options& options,
                                            const Seeds& seeds, int index) {
  Rng data(seeds.data);
  Graph graph = Must(
      dpsp::MakeCaterpillarTree(kCaterpillarSpine, kCaterpillarLegs),
      "caterpillar");
  EdgeWeights weights = dpsp::MakeUniformWeights(graph, 0.1, 0.9, &data);
  Graph fresh_graph = Must(
      dpsp::MakeCaterpillarTree(kFreshSpine, kCaterpillarLegs),
      "fresh caterpillar");
  EdgeWeights fresh_weights =
      dpsp::MakeUniformWeights(fresh_graph, 0.1, 0.9, &data);
  auto d = std::make_unique<Replicated>(std::move(graph), std::move(weights),
                                        std::move(fresh_graph),
                                        std::move(fresh_weights));
  for (dpsp::EdgeId e = 0; e < d->graph.num_edges(); ++e) {
    const dpsp::EdgeEndpoints& ends = d->graph.edge(e);
    if (d->graph.Degree(ends.u) == 1 || d->graph.Degree(ends.v) == 1) {
      d->leaf_edges.push_back(e);
    }
  }
  d->persistence_dir =
      (fs::path(options.work_dir) / ("coordinator-" + std::to_string(index)))
          .string();
  std::error_code ec;
  fs::remove_all(d->persistence_dir, ec);

  ReleaseContext ctx = Must(
      ReleaseContext::Create(ReleaseParams(), seeds.noise), "release context");
  ctx.SetTotalBudget(TotalBudget());
  dpsp::net::QueryServerOptions server_options;
  server_options.persistence_dir = d->persistence_dir;
  d->server = std::make_unique<dpsp::net::QueryServer>(server_options,
                                                       std::move(ctx));
  Must(d->server->AddWorkload("caterpillar", d->graph, d->weights),
       "add workload");
  Must(d->server->AddWorkload("fresh", d->fresh_graph, d->fresh_weights),
       "add workload");
  Must(d->server->Start(), "coordinator server start");
  d->coordinator = std::make_unique<dpsp::cluster::Coordinator>(
      dpsp::cluster::CoordinatorOptions{}, d->server.get());
  Must(d->coordinator->Start(), "coordinator start");

  d->replica_server = std::make_unique<dpsp::net::QueryServer>(
      dpsp::net::QueryServerOptions{});
  Must(d->replica_server->AddWorkload("caterpillar", d->graph, d->weights),
       "replica workload");
  Must(d->replica_server->AddWorkload("fresh", d->fresh_graph,
                                      d->fresh_weights),
       "replica workload");
  Must(d->replica_server->Start(), "replica server start");
  dpsp::cluster::ReplicaOptions replica_options;
  replica_options.coordinator_port = d->coordinator->replication_port();
  replica_options.name = "perfbench-replica";
  d->replica = std::make_unique<dpsp::cluster::Replica>(
      replica_options, d->replica_server.get());
  Must(d->replica->Start(), "replica start");

  Client admin = Must(Client::Connect(kLocalhost, d->server->port()),
                      "admin connect");
  d->release = Must(admin.Release("caterpillar", "tree-hld", "live"),
                    "release");
  Must(d->replica->WaitForLsn(d->server->last_epoch_lsn(), 60000),
       "replica catch-up");
  return d;
}

std::vector<EdgeWeightDelta> EpochDeltas(const Seeds& seeds,
                                         const std::vector<dpsp::EdgeId>& leaves,
                                         uint64_t epoch) {
  Rng rng(Mix64(seeds.updates + epoch));
  std::vector<EdgeWeightDelta> deltas(kDeltasPerEpoch);
  for (EdgeWeightDelta& delta : deltas) {
    delta.edge = leaves[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(leaves.size()) - 1))];
    delta.new_weight = rng.Uniform(0.1, 0.9);
  }
  return deltas;
}

/// One write the single writer performed, in ledger (and LSN) order.
struct WriteOp {
  bool is_release = false;
  uint64_t index = 0;      // epoch number or release number
  uint64_t lsn = 0;
  uint32_t handle = 0;     // release: the new handle
  double charged_epsilon = 0.0;
  /// The live handle's answers on the check pairs right after an epoch
  /// (the writer is the only mutator, so they are exactly this epoch's).
  std::vector<double> check_answers;
};

struct ReplicaSample {
  uint64_t lsn = 0;
  std::vector<double> answers;
};

}  // namespace

void RunUpdateReplicated(const Options& options, const Seeds& seeds,
                         Outcome* out) {
  double setup_s = 0.0;
  auto d = RepeatSetup<Replicated>(
      [&](int i) { return SetUpReplicated(options, seeds, i); }, &setup_s);
  const uint16_t port = d->server->port();
  const uint32_t live = d->release.handle_id;
  std::vector<VertexPair> check_pairs;
  UniformBatches(Mix64(seeds.pairs ^ 0xc4ec), d->graph.num_vertices(),
                 kCheckPairs)(0, 0, &check_pairs);
  std::vector<VertexPair> fresh_check_pairs;
  UniformBatches(Mix64(seeds.pairs ^ 0xf4e5), d->fresh_graph.num_vertices(),
                 kCheckPairs)(0, 0, &fresh_check_pairs);

  QueryLoad load;
  load.port = port;
  load.handle = live;
  load.connections = kReplQueryConnections;
  load.make_batch = UniformBatches(seeds.pairs, d->graph.num_vertices(),
                                   kReplQueryPairsPerBatch);
  load.max_saved = 0;  // the writer's check queries are the wire sample
  const Window window = Window::Make(options);

  // The lag observer: one ack at a time, in LSN order.
  struct Ack {
    uint64_t lsn = 0;
    int64_t ack_ns = 0;
    bool check = false;
  };
  std::mutex ack_mutex;
  std::condition_variable ack_cv;
  std::deque<Ack> acks;
  bool writer_done = false;
  std::vector<double> lag_ms;
  std::vector<ReplicaSample> replica_samples;
  std::thread observer([&] {
    std::optional<Client> reader;
    for (;;) {
      Ack ack;
      {
        std::unique_lock<std::mutex> lock(ack_mutex);
        ack_cv.wait(lock, [&] { return writer_done || !acks.empty(); });
        if (acks.empty()) return;
        ack = acks.front();
        acks.pop_front();
      }
      dpsp::Status caught_up;
      {
        Span span("cluster.Replica.WaitForLsn");
        caught_up = d->replica->WaitForLsn(ack.lsn, 30000);
      }
      out->ops.Attempt();
      if (!caught_up.ok()) {
        out->ops.Fail("replica catch-up: " + caught_up.ToString());
        continue;
      }
      lag_ms.push_back(static_cast<double>(NowNs() - ack.ack_ns) * 1e-6);
      if (!ack.check) continue;
      // Replica answers for this epoch: read the LSN on both sides of the
      // query, keep the sample only if the replica stood still.
      out->ops.Attempt();
      if (!reader.has_value() || reader->broken()) {
        auto dialed = Client::Connect(kLocalhost, d->replica_server->port(),
                                      LoadClientOptions());
        if (!dialed.ok()) {
          out->ops.Fail("replica connect: " + dialed.status().ToString());
          continue;
        }
        reader.emplace(std::move(dialed).value());
      }
      const uint64_t before = d->replica->last_applied_lsn();
      auto answers = reader->Query(live, check_pairs);
      const uint64_t after = d->replica->last_applied_lsn();
      if (!answers.ok()) {
        out->ops.Fail("replica query: " +
                      ClientErrorText(*reader, answers.status()));
        continue;
      }
      if (before == after) {
        replica_samples.push_back({before, std::move(answers).value()});
      }
    }
  });

  // The single writer: paced epochs on the live handle and fresh releases
  // at a fixed cadence, in one ledger order the local replay can follow.
  std::vector<WriteOp> writes;
  std::vector<double> update_ms;
  std::vector<double> release_ms;
  std::vector<double> writer_late_ms;
  uint64_t lsn = d->server->last_epoch_lsn();
  std::thread writer([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::optional<Client> client;
    const int64_t epoch_ns = SecondsToNs(1.0 / kEpochsPerSec);
    const int64_t release_ns = SecondsToNs(1.0 / kReleasesPerSec);
    uint64_t next_epoch = 0, next_release = 0;
    for (;;) {
      const int64_t epoch_due =
          window.start_ns + static_cast<int64_t>(next_epoch) * epoch_ns;
      // Releases sit half an epoch interval after an epoch slot.
      const int64_t release_due = window.start_ns + epoch_ns / 2 +
                                  static_cast<int64_t>(next_release) *
                                      release_ns;
      const bool is_release = release_due < epoch_due;
      const int64_t due = is_release ? release_due : epoch_due;
      if (due >= window.end_ns) break;
      SleepUntilNs(due);
      const int64_t t0 = NowNs();
      writer_late_ms.push_back(static_cast<double>(t0 - due) * 1e-6);
      out->ops.Attempt();
      if (!client.has_value() || client->broken()) {
        auto dialed = Client::Connect(kLocalhost, port, LoadClientOptions());
        if (!dialed.ok()) {
          out->ops.Fail("writer connect: " + dialed.status().ToString());
          (is_release ? next_release : next_epoch)++;
          continue;
        }
        client.emplace(std::move(dialed).value());
      }
      WriteOp op;
      op.is_release = is_release;
      if (is_release) {
        op.index = next_release++;
        auto info = [&] {
          Span span("net.Client.Release");
          return client->Release("fresh", "tree-hld",
                                 "fresh-" + std::to_string(op.index));
        }();
        const int64_t t1 = NowNs();
        if (!info.ok()) {
          out->ops.Fail("release: " + ClientErrorText(*client, info.status()));
          continue;
        }
        release_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
        op.handle = info->handle_id;
        op.charged_epsilon = info->epsilon;
        op.lsn = ++lsn;
      } else {
        op.index = next_epoch++;
        const std::vector<EdgeWeightDelta> deltas =
            EpochDeltas(seeds, d->leaf_edges, op.index);
        auto info = [&] {
          Span span("net.Client.UpdateWeights");
          return client->UpdateWeights(live, deltas);
        }();
        const int64_t t1 = NowNs();
        if (!info.ok()) {
          out->ops.Fail("update: " + ClientErrorText(*client, info.status()));
          continue;
        }
        update_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
        op.charged_epsilon = info->charged_epsilon;
        op.lsn = ++lsn;
        {
          std::lock_guard<std::mutex> lock(ack_mutex);
          acks.push_back({op.lsn, t1, op.index % kReplicaCheckEvery == 0});
        }
        ack_cv.notify_one();
        out->ops.Attempt();
        auto answers = [&] {
          Span span("check.Client.Query");
          return client->Query(live, check_pairs);
        }();
        if (!answers.ok()) {
          out->ops.Fail("check query: " +
                        ClientErrorText(*client, answers.status()));
        } else {
          op.check_answers = std::move(answers).value();
        }
      }
      writes.push_back(std::move(op));
    }
    {
      std::lock_guard<std::mutex> lock(ack_mutex);
      writer_done = true;
    }
    ack_cv.notify_one();
  });

  std::vector<ConnResult> results = RunQueryLoad(load, window, &out->ops);
  writer.join();
  observer.join();
  out->end_to_end["setup_s"] = {setup_s, "s"};
  out->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  double traced_rtt_us = 0.0;
  ReportQueries(results, window, kReplQueryPairsPerBatch, out,
                &traced_rtt_us);
  Tracer::Get().Enable(false);
  // The writer is the one paced generator.
  out->layers["loadgen.late_p99_ms"] = {
      Percentile(writer_late_ms, 0.99, "loadgen.late_p99_ms"), "ms"};

  out->layers["update_p50_ms"] = {
      Percentile(update_ms, 0.50, "update_p50_ms"), "ms"};
  out->layers["update_p90_ms"] = {
      Percentile(update_ms, 0.90, "update_p90_ms"), "ms"};
  out->layers["replica_lag_p50_ms"] = {
      Percentile(lag_ms, 0.50, "replica_lag_p50_ms"), "ms"};
  out->layers["replica_lag_p90_ms"] = {
      Percentile(lag_ms, 0.90, "replica_lag_p90_ms"), "ms"};
  out->layers["release_p50_ms"] = {
      Percentile(release_ms, 0.50, "release_p50_ms"), "ms"};

  // Ledger and LSN: the wire's spent epsilon is the sum, in ledger order,
  // of every charge the responses reported.
  double charged = d->release.epsilon;
  for (const WriteOp& op : writes) charged += op.charged_epsilon;
  CheckLedger(port, charged, out);
  out->checks.Expect(d->server->last_epoch_lsn() == lsn,
                     "coordinator LSN != writes performed");

  // Local replay of the same writes in the same order on one noise stream.
  // In a traced run the replayed layer calls are the update-path probes.
  if (options.trace) Tracer::Get().Enable(true);
  ReleaseContext ctx = Must(
      ReleaseContext::Create(ReleaseParams(), seeds.noise), "replay context");
  ctx.SetTotalBudget(TotalBudget());
  const OracleRegistry& registry = OracleRegistry::Global();
  auto local = Must(registry.Create("tree-hld", d->graph, d->weights, ctx),
                    "local replay");
  std::vector<std::pair<uint32_t, std::unique_ptr<dpsp::DistanceOracle>>>
      fresh;
  std::map<uint64_t, const WriteOp*> by_lsn;
  UpdateReplay replay(options.trace);
  for (const WriteOp& op : writes) {
    by_lsn[op.lsn] = &op;
    if (op.is_release) {
      fresh.emplace_back(op.handle,
                         Must(registry.Create("tree-hld", d->fresh_graph,
                                              d->fresh_weights, ctx),
                              "local fresh replay"));
      continue;
    }
    const std::vector<EdgeWeightDelta> deltas =
        EpochDeltas(seeds, d->leaf_edges, op.index);
    Must(replay.Apply(local.get(), deltas, ctx), "local epoch replay");
    out->checks.Expect(
        local->AsUpdatable()->last_update().charged_epsilon ==
            op.charged_epsilon,
        "epoch " + std::to_string(op.index) + " charge differs from replay");
    if (!op.check_answers.empty()) {
      std::vector<double> expected(check_pairs.size());
      const dpsp::Status s = local->DistanceInto(check_pairs, expected.data());
      out->checks.Expect(s.ok() && SameBits(op.check_answers, expected),
                         "coordinator answers after epoch " +
                             std::to_string(op.index) +
                             " differ from the local replay");
    }
  }
  Tracer::Get().Enable(false);
  // Replica samples: equal to the coordinator's answers at that LSN. The
  // replica swaps a new oracle in just before it publishes the LSN, so a
  // sample may also show the next epoch's answers.
  for (const ReplicaSample& sample : replica_samples) {
    bool matched = false;
    for (uint64_t l : {sample.lsn, sample.lsn + 1}) {
      auto it = by_lsn.find(l);
      if (it != by_lsn.end() && !it->second->is_release &&
          SameBits(sample.answers, it->second->check_answers)) {
        matched = true;
      }
    }
    out->checks.Expect(matched, "replica answers at LSN " +
                                    std::to_string(sample.lsn) +
                                    " differ from the coordinator's");
  }
  // Final state: coordinator, replica and replay agree on every handle.
  Must(d->replica->WaitForLsn(lsn, 60000), "final replica catch-up");
  for (uint16_t node : {port, d->replica_server->port()}) {
    out->ops.Attempt();
    auto client = Client::Connect(kLocalhost, node);
    if (!client.ok()) {
      out->ops.Fail("final connect: " + client.status().ToString());
      continue;
    }
    auto compare = [&](uint32_t handle, const dpsp::DistanceOracle& oracle,
                       const std::vector<VertexPair>& pairs) {
      out->ops.Attempt();
      auto answers = client->Query(handle, pairs);
      if (!answers.ok()) {
        out->ops.Fail("final query: " + answers.status().ToString());
        return;
      }
      std::vector<double> expected(pairs.size());
      const dpsp::Status s = oracle.DistanceInto(pairs, expected.data());
      out->checks.Expect(s.ok() && SameBits(*answers, expected),
                         "final answers of handle " + std::to_string(handle) +
                             " on port " + std::to_string(node) +
                             " differ from the local replay");
    };
    compare(live, *local, check_pairs);
    for (const auto& [handle, oracle] : fresh) {
      compare(handle, *oracle, fresh_check_pairs);
    }
  }

  ReportLoadShape(load, results, out);
  const dpsp::cluster::ShipStats ship = d->coordinator->ship_stats();
  out->layers["cluster.ship_bytes_per_epoch"] = {
      ship.delta_frames > 0 ? static_cast<double>(ship.delta_bytes) /
                                  static_cast<double>(ship.delta_frames)
                            : 0.0,
      "bytes"};
  out->layers["cluster.full_ships"] = {static_cast<double>(ship.full_frames),
                                       "count"};
  out->layers["cluster.replica_resyncs"] = {
      static_cast<double>(d->replica->resyncs()), "count"};
  std::printf("update-replicated: %zu epochs, %zu releases, %zu replica "
              "samples, lsn %llu\n",
              update_ms.size(), release_ms.size(),
              replica_samples.size(), static_cast<unsigned long long>(lsn));
  if (!options.trace) return;

  Tracer::Get().Enable(true);
  ProbeQueryPathOf(load, *local, traced_rtt_us, &out->layers);
  ProbeReleasePath("tree-hld", d->graph, d->weights, seeds.noise,
                   &out->layers);
  ProbeStorePath(*local, "tree-hld", d->graph, d->weights, options.work_dir,
                 &out->layers);
  replay.Report(&out->layers);
  SplitQuerySpansByWrites(&out->layers);
}

}  // namespace perfbench
