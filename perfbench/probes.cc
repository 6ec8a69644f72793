// Per-layer probes of the traced run. Every number here comes from the
// benchmark calling a module's public functions itself, under a trace
// span, and reducing the recorded spans' self times — the program under
// test is not instrumented.

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/random.h"
#include "core/oracle_registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "perfbench.h"
#include "serve/batch_executor.h"
#include "store/oracle_store.h"
#include "store/snapshot_delta.h"
#include "store/wal.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Median self time, in nanoseconds, of the spans named `name` (0 when
/// none were recorded).
double MedianSelfNs(const char* name) {
  const auto self = Tracer::SelfTimesNs(Tracer::Get().Collect());
  auto it = self.find(name);
  return it == self.end() ? 0.0 : Median(it->second);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

void ProbeQueryPath(const QueryPathProbe& probe, MetricSet* layers) {
  const dpsp::DistanceOracle& oracle = *probe.oracle;
  const size_t batch_pairs = probe.batches.front().size();

  // core: the serial kernel, one batch at a time.
  std::vector<double> out(batch_pairs);
  const int kernel_reps = batch_pairs >= 4096 ? 4 : 256;
  for (int r = 0; r < kernel_reps; ++r) {
    for (const auto& batch : probe.batches) {
      Span span("core.DistanceInto");
      (void)oracle.DistanceInto(batch, out.data());
    }
  }
  const double kernel_ns = MedianSelfNs("core.DistanceInto");
  (*layers)["core.kernel_ns_per_pair"] = {
      kernel_ns / static_cast<double>(batch_pairs), "ns"};

  // serve: the executor with the server's default options, driven from as
  // many threads as the workload has connections.
  dpsp::BatchExecutor executor;
  {
    const int reps = batch_pairs >= 4096 ? 16 : 2048;
    std::vector<std::thread> threads;
    for (int t = 0; t < probe.connections; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < reps; ++r) {
          const auto& batch =
              probe.batches[static_cast<size_t>(r + t) % probe.batches.size()];
          Span span("serve.BatchExecutor.Execute");
          (void)executor.Execute(oracle, batch);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double execute_us = MedianSelfNs("serve.BatchExecutor.Execute") * 1e-3;
  (*layers)["serve.execute_us_per_batch"] = {execute_us, "us"};
  (*layers)["serve.shards_per_batch"] = {
      static_cast<double>(executor.PlannedShardCount(batch_pairs)), "count"};

  // net: the codec on both sides of one batch, and the Stats round trip as
  // the per-request floor (framing, syscalls, one dispatch).
  std::vector<uint8_t> request, response;
  for (int r = 0; r < 64; ++r) {
    const auto& batch = probe.batches[static_cast<size_t>(r) %
                                      probe.batches.size()];
    oracle.DistanceInto(batch, out.data());
    Span codec("net.codec");
    {
      Span s("net.EncodeQueryRequest");
      request = dpsp::net::EncodeQueryRequest(0, batch);
    }
    {
      Span s("net.DecodeQueryRequest");
      (void)dpsp::net::DecodeQueryRequest(request);
    }
    {
      Span s("net.EncodeQueryResponse");
      response = dpsp::net::EncodeQueryResponse(out);
    }
    {
      Span s("net.DecodeQueryResponse");
      (void)dpsp::net::DecodeQueryResponse(response);
    }
  }
  double codec_ns = 0.0;
  for (const char* name : {"net.EncodeQueryRequest", "net.DecodeQueryRequest",
                           "net.EncodeQueryResponse",
                           "net.DecodeQueryResponse"}) {
    codec_ns += MedianSelfNs(name);
  }
  constexpr double kHeaderBytes = 12.0;  // per frame, each direction
  (*layers)["net.codec_us_per_batch"] = {codec_ns * 1e-3, "us"};
  (*layers)["net.wire_bytes_per_pair"] = {
      (2 * kHeaderBytes + static_cast<double>(request.size() + response.size())) /
          static_cast<double>(batch_pairs),
      "bytes"};

  auto client = dpsp::net::Client::Connect("127.0.0.1", probe.port);
  if (client.ok()) {
    for (int r = 0; r < 256; ++r) {
      Span span("net.Client.Stats");
      (void)client->Stats();
    }
  }
  const double stats_us = MedianSelfNs("net.Client.Stats") * 1e-3;
  (*layers)["net.stats_rtt_us"] = {stats_us, "us"};
  (*layers)["net.unattributed_us_per_batch"] = {
      probe.median_query_rtt_us - (stats_us + codec_ns * 1e-3 + execute_us),
      "us"};
}

void ProbeReleasePath(const std::string& mechanism, const Graph& graph,
                      const EdgeWeights& weights, uint64_t noise_seed,
                      MetricSet* layers) {
  std::vector<double> draws;
  for (uint64_t r = 0; r < 5; ++r) {
    auto ctx = dpsp::ReleaseContext::Create(ReleaseParams(), noise_seed + r);
    if (!ctx.ok()) continue;
    {
      Span span("core.OracleRegistry.Create");
      (void)dpsp::OracleRegistry::Global().Create(mechanism, graph, weights,
                                                  *ctx);
    }
    if (const dpsp::ReleaseTelemetry* t = ctx->last_telemetry()) {
      draws.push_back(static_cast<double>(t->noise_draws));
    }
  }
  (*layers)["core.build_ms"] = {
      MedianSelfNs("core.OracleRegistry.Create") * 1e-6, "ms"};
  (*layers)["dp.noise_draws_per_release"] = {Median(draws), "count"};

  // The public sampler every Laplace release draws through.
  constexpr int kDraws = 100000;
  dpsp::Rng rng(noise_seed);
  double sink = 0.0;
  for (int r = 0; r < 9; ++r) {
    Span span("dp.Rng.Laplace");
    for (int i = 0; i < kDraws; ++i) sink += rng.Laplace(1.0);
  }
  volatile double keep = sink;  // the draws must not be optimized away
  (void)keep;
  (*layers)["dp.sample_ns_per_draw"] = {
      MedianSelfNs("dp.Rng.Laplace") / kDraws, "ns"};
}

void ProbeStorePath(const dpsp::DistanceOracle& oracle,
                    const std::string& mechanism, const Graph& graph,
                    const EdgeWeights& weights, const std::string& dir,
                    MetricSet* layers) {
  const std::string probe_dir = (fs::path(dir) / "store-probe").string();
  std::error_code ec;
  fs::remove_all(probe_dir, ec);
  fs::create_directories(probe_dir, ec);

  std::vector<dpsp::ReleasedSection> sections;
  for (int r = 0; r < 5; ++r) {
    sections.clear();
    Span span("core.SaveReleasedState");
    (void)oracle.SaveReleasedState(&sections);
  }
  uint64_t image_bytes = 0;
  for (const auto& s : sections) image_bytes += s.bytes.size();
  (*layers)["core.save_state_ms"] = {
      MedianSelfNs("core.SaveReleasedState") * 1e-6, "ms"};
  (*layers)["core.image_bytes"] = {static_cast<double>(image_bytes),
                                   "bytes"};

  // Snapshot writes, fsync'd as shipped, on the persistence filesystem.
  const std::string snap = (fs::path(probe_dir) / "probe.snap").string();
  const dpsp::store::OracleSnapshotMeta meta{mechanism, "g", "probe"};
  for (int r = 0; r < 5; ++r) {
    Span span("store.SaveOracleSnapshot");
    (void)dpsp::store::SaveOracleSnapshot(snap, oracle, meta, 1);
  }
  (*layers)["store.snapshot_write_ms"] = {
      MedianSelfNs("store.SaveOracleSnapshot") * 1e-6, "ms"};
  (*layers)["store.snapshot_bytes"] = {static_cast<double>(FileBytes(snap)),
                                       "bytes"};

  // One charge's WAL cost: intent + commit, each fdatasync'd.
  const std::string wal_path = (fs::path(probe_dir) / "probe.wal").string();
  constexpr int kCharges = 32;
  if (auto wal = dpsp::store::BudgetWal::Open(wal_path, 1); wal.ok()) {
    const dpsp::PrivacyLoss loss = dpsp::PrivacyLoss::Pure(0.0625);
    for (int r = 0; r < kCharges; ++r) {
      Span span("store.BudgetWal.charge");
      auto lsn = (*wal)->AppendIntent("tree-hld", loss);
      if (lsn.ok()) (void)(*wal)->AppendCommit(*lsn);
    }
  }
  (*layers)["store.wal_commit_us"] = {
      MedianSelfNs("store.BudgetWal.charge") * 1e-3, "us"};
  (*layers)["store.wal_bytes_per_charge"] = {
      static_cast<double>(FileBytes(wal_path)) / kCharges, "bytes"};

  // A replica's install: rebuild the serving oracle from the image.
  dpsp::serve::HandleImage image;
  image.InstallFull("probe", mechanism, "g", sections, 1);
  for (int r = 0; r < 3; ++r) {
    Span span("serve.HandleImage.Materialize");
    (void)image.Materialize(graph, weights);
  }
  (*layers)["serve.image_materialize_ms"] = {
      MedianSelfNs("serve.HandleImage.Materialize") * 1e-6, "ms"};
  fs::remove_all(probe_dir, ec);
}

dpsp::Status UpdateReplay::Apply(dpsp::DistanceOracle* oracle,
                                 std::span<const dpsp::EdgeWeightDelta> deltas,
                                 dpsp::ReleaseContext& ctx) {
  dpsp::UpdatableDistanceOracle* updatable = oracle->AsUpdatable();
  if (updatable == nullptr) {
    return dpsp::Status::FailedPrecondition("oracle is build-once");
  }
  if (record_ && replica_image_ == nullptr) {
    DPSP_RETURN_IF_ERROR(oracle->SaveReleasedState(&image_));
    replica_image_ = std::make_unique<dpsp::serve::HandleImage>();
    replica_image_->InstallFull("replay", "tree-hld", "g", image_, 0);
  }
  {
    Span span("core.ApplyWeightUpdates");
    DPSP_RETURN_IF_ERROR(updatable->ApplyWeightUpdates(deltas, ctx));
  }
  ++epochs_;
  const auto& stats = updatable->last_update();
  dirty_blocks_.push_back(stats.dirty_blocks);
  charged_eps_.push_back(stats.charged_epsilon);
  if (!record_) return dpsp::Status::Ok();

  std::vector<dpsp::ReleasedSection> after;
  DPSP_RETURN_IF_ERROR(oracle->SaveReleasedState(&after));
  std::vector<dpsp::store::SectionPatch> patches;
  {
    Span span("store.ComputeSectionDelta");
    auto delta = dpsp::store::ComputeSectionDelta(image_, after);
    if (!delta.ok()) return delta.status();
    patches = std::move(delta).value();
  }
  delta_bytes_.push_back(
      static_cast<double>(dpsp::store::SectionDeltaBytes(patches)));
  {
    Span span("serve.HandleImage.ApplyDelta");
    DPSP_RETURN_IF_ERROR(replica_image_->ApplyDelta(patches, epochs_));
  }
  image_ = std::move(after);
  return dpsp::Status::Ok();
}

void UpdateReplay::Report(MetricSet* layers) const {
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double delta_bytes = mean(delta_bytes_);
  (*layers)["core.update_apply_ms"] = {
      MedianSelfNs("core.ApplyWeightUpdates") * 1e-6, "ms"};
  (*layers)["core.dirty_blocks_per_epoch"] = {mean(dirty_blocks_), "count"};
  (*layers)["dp.charged_eps_per_epoch"] = {mean(charged_eps_), "eps"};
  (*layers)["store.delta_compute_ms"] = {
      MedianSelfNs("store.ComputeSectionDelta") * 1e-6, "ms"};
  (*layers)["store.delta_bytes_per_epoch"] = {delta_bytes, "bytes"};
  (*layers)["serve.image_apply_delta_ms"] = {
      MedianSelfNs("serve.HandleImage.ApplyDelta") * 1e-6, "ms"};
  // Per epoch the coordinator rewrites the whole snapshot and logs one
  // charge; a replica rebuilds from the whole image.
  const double written = (*layers)["store.snapshot_bytes"].value +
                         (*layers)["store.wal_bytes_per_charge"].value;
  (*layers)["store.bytes_written_per_delta_byte"] = {
      delta_bytes > 0 ? written / delta_bytes : 0.0, "ratio"};
  (*layers)["serve.materialize_bytes_per_delta_byte"] = {
      delta_bytes > 0 ? (*layers)["core.image_bytes"].value / delta_bytes
                      : 0.0,
      "ratio"};
}

void ZeroWriteLayers(MetricSet* layers) {
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"core.update_apply_ms", "ms"},
           {"core.dirty_blocks_per_epoch", "count"},
           {"dp.charged_eps_per_epoch", "eps"},
           {"store.delta_compute_ms", "ms"},
           {"store.delta_bytes_per_epoch", "bytes"},
           {"store.bytes_written_per_delta_byte", "ratio"},
           {"serve.image_apply_delta_ms", "ms"},
           {"serve.materialize_bytes_per_delta_byte", "ratio"},
           {"cluster.ship_bytes_per_epoch", "bytes"},
           {"cluster.full_ships", "count"},
           {"cluster.replica_resyncs", "count"},
           {"update_p50_ms", "ms"},
           {"update_p90_ms", "ms"},
           {"replica_lag_p50_ms", "ms"},
           {"replica_lag_p90_ms", "ms"},
           {"release_p50_ms", "ms"}}) {
    (*layers)[name] = {0.0, unit};
  }
}

void SplitQuerySpansByWrites(MetricSet* layers) {
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  std::vector<std::pair<int64_t, int64_t>> writes;  // sorted by start
  for (const SpanRecord& s : spans) {
    const std::string_view name = s.name;
    if (name == "net.Client.UpdateWeights" || name == "net.Client.Release") {
      writes.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> overlap, clear;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) != "net.Client.Query") continue;
    // Writes come from one thread, so they never overlap each other and
    // the last one to start before this query ended ends last.
    auto it = std::lower_bound(
        writes.begin(), writes.end(), std::make_pair(s.end_ns, INT64_MIN));
    const bool overlapped =
        it != writes.begin() && std::prev(it)->second > s.start_ns;
    (overlapped ? overlap : clear)
        .push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  (*layers)["serve.query_rtt_overlap_update_ms"] = {Median(overlap), "ms"};
  (*layers)["serve.query_rtt_no_update_ms"] = {Median(clear), "ms"};
}

}  // namespace perfbench
