// Sharded batch execution over released distance oracles — the serving
// layer between a query stream and the DistanceOracle kernels.
//
// A released oracle answers queries by pure reads of an immutable
// structure, so a batch of pairs can be partitioned arbitrarily. The
// executor splits an incoming span into contiguous shards, runs each
// shard's slice through the oracle's fused serial DistanceInto kernel on
// a thread ParallelFor starts for the call (there is no standing pool),
// and each kernel writes its own slice of the output, so results come
// back in input order with no merge.
//
// Every shard runs the same serial kernel over the same pairs, so sharded
// and serial results are bit-identical.
//
// Privacy composition: serving consumes no budget (queries are
// post-processing), but a sharded *build* pipeline constructs per-shard
// oracles through ReleaseContext::Fork children and composes their spend
// into the single parent ledger with ReleaseContext::AbsorbShard.

#ifndef DPSP_SERVE_BATCH_EXECUTOR_H_
#define DPSP_SERVE_BATCH_EXECUTOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"

namespace dpsp {

/// Tuning knobs for the executor.
struct BatchExecutorOptions {
  /// Target shard count; 0 derives one shard per available worker.
  int num_shards = 0;
  /// Worker threads the shards are spread across (0 = hardware
  /// concurrency, 1 = serial execution of every shard).
  int max_threads = 0;
  /// Minimum pairs per shard: small batches collapse to fewer shards so
  /// the latency path never pays fan-out overhead for a handful of
  /// queries.
  size_t min_shard_pairs = 2048;
};

/// Partitions query batches into contiguous shards and runs them across
/// workers.
class BatchExecutor {
 public:
  BatchExecutor() = default;
  explicit BatchExecutor(BatchExecutorOptions options) : options_(options) {}

  /// Answers `pairs` through `oracle`, sharded per the options, results in
  /// input order. Bit-identical to DistanceBatchOf(oracle, pairs, 1).
  Result<std::vector<double>> Execute(const DistanceOracle& oracle,
                                      std::span<const VertexPair> pairs) const;

  /// Shards Execute would use for a batch of `num_pairs` (for reports).
  int PlannedShardCount(size_t num_pairs) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  BatchExecutorOptions options_;
};

}  // namespace dpsp

#endif  // DPSP_SERVE_BATCH_EXECUTOR_H_
