// Shared declarations of the serving benchmark (see README.md): run
// options, seed derivation, metric and failure accounting, the three
// workloads, and the per-layer probes the traced run adds.

#ifndef DPSP_PERFBENCH_PERFBENCH_H_
#define DPSP_PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "serve/handle_image.h"

namespace perfbench {

using dpsp::EdgeWeights;
using dpsp::Graph;
using dpsp::VertexPair;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for persistence, store probes and the span dump
  /// (run.py creates it inside the checkout and removes it afterwards).
  std::string work_dir;
};

/// Independent streams derived from the one workload seed, so the data
/// (weights) stream is never reused as the noise stream.
struct Seeds {
  uint64_t data = 0;
  uint64_t pairs = 0;
  uint64_t noise = 0;
  uint64_t updates = 0;
  static Seeds Derive(uint64_t workload_seed);
};

/// splitmix64 finalizer: the counter-based generator behind the pair
/// streams (pair i of batch k is a pure function of the seed, k and i).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Set-up failure: reports and exits non-zero without a result line.
[[noreturn]] void Fatal(const std::string& what);

inline void Must(const dpsp::Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(dpsp::Result<T> result, const char* what) {
  if (!result.ok()) Fatal(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricSet = std::map<std::string, Metric>;

/// Attempted/failed counts over every operation type. Failures are
/// counted, never fatal; the first few messages go to stderr.
class OpLedger {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mutex_;
};

/// Correctness verdict: every check that ran, and whether it held.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  /// True when at least one check ran and none failed.
  bool passed() const { return ran_ > 0 && failures_ == 0; }

 private:
  uint64_t ran_ = 0;
  uint64_t failures_ = 0;
};

struct Outcome {
  Checks checks;
  OpLedger ops;
  MetricSet end_to_end;
  MetricSet layers;
};

/// Linear-interpolated quantile of `samples` (dpsp::Quantile). Warns on
/// stderr when fewer than ten samples lie beyond it.
double Percentile(const std::vector<double>& samples, double q,
                  const char* what);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Bit-exact comparison of two answer vectors.
bool SameBits(std::span<const double> a, std::span<const double> b);

/// The privacy parameters every release uses, and the ledger ceiling
/// (sized so no release or epoch is refused at the defined run length).
dpsp::PrivacyParams ReleaseParams();
dpsp::PrivacyParams TotalBudget();

// The workloads (workloads.cc). Each runs set-up several times, measures
// for options.seconds, checks answers, and fills the outcome.
void RunHldBulk(const Options& options, const Seeds& seeds, Outcome* out);
void RunSmallBatch(const Options& options, const Seeds& seeds,
                   Outcome* out);
void RunUpdateReplicated(const Options& options, const Seeds& seeds,
                         Outcome* out);

// ------------------------------------------------------------ probes --
// Per-layer numbers for the traced run (probes.cc): each probe calls one
// module's public functions from outside, under trace spans, and reduces
// the spans' self times to metrics.

/// Query path: core kernel, serve executor, net codec/floor/residual.
struct QueryPathProbe {
  const dpsp::DistanceOracle* oracle = nullptr;  // local replay
  std::vector<std::vector<VertexPair>> batches;  // sample batches
  int connections = 1;
  uint16_t port = 0;  // live server, for the Stats round-trip floor
  /// Median client query round trip of the traced window, microseconds.
  double median_query_rtt_us = 0.0;
};
void ProbeQueryPath(const QueryPathProbe& probe, MetricSet* layers);

/// Release path: registry build, noise draws, the public sampler.
void ProbeReleasePath(const std::string& mechanism, const Graph& graph,
                      const EdgeWeights& weights, uint64_t noise_seed,
                      MetricSet* layers);

/// Store and image path for one released oracle: SaveReleasedState,
/// snapshot write, WAL intent+commit on the same filesystem, replica
/// image materialization.
void ProbeStorePath(const dpsp::DistanceOracle& oracle,
                    const std::string& mechanism, const Graph& graph,
                    const EdgeWeights& weights, const std::string& dir,
                    MetricSet* layers);

/// Replays update epochs on a local oracle (the correctness replay). With
/// `record` on it also drives the update path's layers from outside:
/// after each ApplyWeightUpdates it saves the released image, diffs it
/// against the previous one (ComputeSectionDelta) and patches a replica
/// image with the delta (HandleImage::ApplyDelta).
class UpdateReplay {
 public:
  explicit UpdateReplay(bool record) : record_(record) {}
  dpsp::Status Apply(dpsp::DistanceOracle* oracle,
                     std::span<const dpsp::EdgeWeightDelta> deltas,
                     dpsp::ReleaseContext& ctx);
  /// Per-epoch update-path metrics. Call after ProbeStorePath, whose
  /// snapshot and WAL numbers the written-per-delta ratio uses.
  void Report(MetricSet* layers) const;

 private:
  bool record_;
  uint64_t epochs_ = 0;
  std::vector<dpsp::ReleasedSection> image_;
  std::unique_ptr<dpsp::serve::HandleImage> replica_image_;
  std::vector<double> dirty_blocks_;
  std::vector<double> charged_eps_;
  std::vector<double> delta_bytes_;
};

/// The write-path metrics (epochs, deltas, shipping, write latencies), all
/// zero: the workload performs no writes.
void ZeroWriteLayers(MetricSet* layers);

/// Adds the metrics a traced run reports from its client spans: query
/// round trips split by overlap with an UpdateWeights/Release span.
void SplitQuerySpansByWrites(MetricSet* layers);

}  // namespace perfbench

#endif  // DPSP_PERFBENCH_PERFBENCH_H_
